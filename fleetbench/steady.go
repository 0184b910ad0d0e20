package main

// Steadiness mode: run a workload several times, each in its own
// process with its own seed, and compare each end-to-end metric's
// spread with its bound.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// boundsFile is the part of BENCHMARK.json the steadiness mode reads.
type boundsFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs the workload runs times with seeds seed, seed+1, ...
// and prints, for each end-to-end metric, the median, the quartiles and
// the spread (interquartile distance over the median) against the
// metric's bound in BENCHMARK.json, plus each run's share of failed
// requests. It fails if any run fails or any spread other than
// setup_s's exceeds its bound.
func runSteady(workload string, seed uint64, seconds, runs int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf boundsFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var shares []string
	for i := 0; i < runs; i++ {
		s := seed + uint64(i)
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: outputs not correct", s)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	fmt.Printf("%s, %d runs from seed %d, %ds each; failed/attempted: %s\n", workload, runs, seed, seconds, strings.Join(shares, " "))
	fmt.Printf("%-16s %-5s %12s %12s %12s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	over := false
	for _, e := range bf.EndToEnd {
		vs := values[e.Name]
		if len(vs) != runs {
			return fmt.Errorf("metric %s reported by %d of %d runs", e.Name, len(vs), runs)
		}
		q1, q3 := quartiles(vs)
		med := median(vs)
		spread := (q3 - q1) / med
		verdict := "within"
		if spread > e.Bound {
			verdict = "OVER"
			over = over || e.Name != "setup_s"
		}
		fmt.Printf("%-16s %-5s %12.4f %12.4f %12.4f %8.4f %6.3f %s\n", e.Name, e.Unit, q1, med, q3, spread, e.Bound, verdict)
	}
	if over {
		return fmt.Errorf("a spread exceeds its bound")
	}
	return nil
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) < 2 {
		return math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}
