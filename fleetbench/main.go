// Command fleetbench is the repository's end-to-end benchmark. It boots
// a fleet router in front of two serve workers in this process, drives
// it with a closed loop of clients over loopback HTTP, checks every
// response against the reference interpreter, and prints one JSON line
// of metrics. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash fleetbench/run.sh --workload warm-cycle --seed 1 --seconds 10 --trace 0
//	bash fleetbench/run.sh --workload warm-cycle --seed 1 --seconds 10 --trace 1
//	bash fleetbench/run.sh --workload warm-cycle --seed 1 --seconds 10 --steady 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

// spansDir is where a traced run writes its spans, relative to the
// repository root.
const spansDir = ".bench_build/spans"

func main() {
	var (
		workload = flag.String("workload", "", "workload: warm-cycle, cold-compile or stream-functional")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 10, "minimum length of the measured phase, in seconds")
		trace    = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics and writing spans to "+spansDir)
		steady   = flag.Int("steady", 0, "steadiness mode: run the workload this many times, seeds counting up from --seed, and print each end-to-end metric's quartiles and spread against its bound")
	)
	flag.Parse()
	sp, err := specByName(*workload)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		if err == nil {
			err = fmt.Errorf("bad arguments")
		}
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *steady > 0 {
		if err := runSteady(sp.name, *seed, *seconds, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "fleetbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runOnce(sp, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOnce runs one workload for one seed. Untraced, it reports the
// end-to-end metrics; traced, it follows the untraced phase with a
// traced one and reports the per-layer metrics.
func runOnce(sp *spec, seed uint64, seconds int, traced bool) (result, error) {
	b, err := prepare(sp, seed, seconds)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	ph, err := b.measure()
	if err != nil {
		return result{}, err
	}
	keys := make([]string, 0, len(b.owners))
	for k := range b.owners {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "placement: %s -> %s\n", k, b.owners[k])
	}
	res := result{Attempted: len(ph.outs), Failed: ph.failed()}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d requests in %d rounds, %.2fs, %d failed\n",
		sp.name, seed, len(ph.outs), ph.rounds, ph.elapsed.Seconds(), res.Failed)
	if !traced {
		res.Correct = res.Failed == 0
		res.Metrics, err = b.endToEnd(ph)
		return res, err
	}
	tp, err := b.measureTraced()
	if err != nil {
		return result{}, err
	}
	res.Attempted += len(tp.outs)
	res.Failed += tp.failed()
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "%s seed %d traced: %d requests in %.2fs\n", sp.name, seed, len(tp.outs), tp.elapsed.Seconds())
	res.Metrics, err = b.perLayer(ph, tp)
	if err != nil {
		return result{}, err
	}
	path, err := tp.tracer.write(spansDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	return res, nil
}
