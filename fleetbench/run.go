package main

// One run of a workload: set-up, the measured phase and its end-to-end
// metrics.

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// setups is how many times a run boots and warms the fleet; setup_s is
// their median and the last fleet is measured.
const setups = 5

// minRequests keeps at least ten samples beyond the 95th percentile.
const minRequests = 200

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload's running state.
type bench struct {
	plan    *plan
	seconds int
	fleet   *fleetInst
	client  *http.Client
	setupS  float64
	owners  map[string]string // artifact key -> X-Ipim-Worker
	parts   [][]int           // each client's round positions, for drive
}

// prepare builds the seeded inputs and their expected outputs, then
// boots and warms the fleet setups times, keeping the last, and learns
// which worker owns each measured key.
func prepare(sp *spec, seed uint64, seconds int) (*bench, error) {
	p, err := sp.build(seed)
	if err != nil {
		return nil, err
	}
	b := &bench{plan: p, seconds: seconds}
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * len(workerNames)}}
	var times []float64
	for i := 0; i < setups; i++ {
		runtime.GC() // no garbage from earlier set-ups or input generation
		t0 := time.Now()
		f, err := bootFleet(sp.cacheCap)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		outs, _ := drive([][]int{positions(len(p.warmup))}, len(p.warmup), 0, 0, func(i int) outcome {
			return b.sendChecked(f.routerURL, p.warmup[i])
		})
		times = append(times, time.Since(t0).Seconds())
		for _, o := range outs {
			if o.err != nil {
				f.close()
				return nil, fmt.Errorf("warm-up: %w", o.err)
			}
		}
		if i < setups-1 {
			f.close()
			b.client.CloseIdleConnections()
		} else {
			b.fleet = f
		}
	}
	b.setupS = median(times)
	if err := b.place(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// place sends each measured key once, in round order, learns its worker
// from X-Ipim-Worker, and gives each worker its own client: client c
// sends, in round order, the positions whose keys worker c owns. So a
// worker serves its keys one at a time and in the same order in every
// round and every run; two clients sharing one sequence fell into
// collision patterns that differed from run to run. With fewer CPUs
// than workers, one client sends the whole round.
//
// For cold-compile the pass leaves each worker's cache holding its last
// keys in round order; each worker owns more keys than its cache holds,
// so every measured request still misses.
func (b *bench) place() error {
	b.owners = map[string]string{}
	for _, o := range b.plan.seq {
		if _, ok := b.owners[o.key()]; ok {
			continue
		}
		probe := *o
		probe.cache = ""
		r, err := send(b.client, b.fleet.routerURL, &probe)
		if err == nil {
			err = check(&probe, r)
		}
		if err != nil {
			return fmt.Errorf("placement: %w", err)
		}
		b.owners[o.key()] = r.header.Get("X-Ipim-Worker")
	}
	if runtime.NumCPU() < len(workerNames) {
		b.parts = [][]int{positions(len(b.plan.seq))}
		return nil
	}
	for _, name := range workerNames {
		var part []int
		for j, o := range b.plan.seq {
			if b.owners[o.key()] == name {
				part = append(part, j)
			}
		}
		if part != nil {
			b.parts = append(b.parts, part)
		}
	}
	return nil
}

// positions returns 0..n-1.
func positions(n int) []int {
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

func (b *bench) close() {
	b.fleet.close()
	b.client.CloseIdleConnections()
}

// sendChecked sends o to base and checks the reply.
func (b *bench) sendChecked(base string, o *op) outcome {
	r, err := send(b.client, base, o)
	if err == nil {
		err = check(o, r)
	}
	return outcome{err: err, ttfb: r.ttfb, latency: r.latency}
}

// phase is one measured phase's raw figures.
type phase struct {
	outs    []outcome
	elapsed time.Duration
	peakRSS float64 // MB
	rounds  int
	seqLen  int
	// over the phase: GC cycles, bytes allocated, and the workers'
	// workerCounterNames
	gcCycles   uint32
	allocBytes uint64
	workers    map[string]float64
}

// counters the untraced phase reads from the workers' /metrics.
var workerCounterNames = []string{"ipim_worker_busy_seconds", "ipim_artifact_cache_misses_total"}

// measure runs the untraced measured phase.
func (b *bench) measure() (*phase, error) {
	runtime.GC()
	debug.FreeOSMemory()
	before, err := b.fleet.workerCounters(workerCounterNames...)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rss, err := startRSSSampler()
	if err != nil {
		return nil, err
	}
	seq := b.plan.seq
	outs, elapsed := drive(b.parts, len(seq), time.Duration(b.seconds)*time.Second, minRequests, func(i int) outcome {
		return b.sendChecked(b.fleet.routerURL, b.plan.at(i))
	})
	peak := rss.stop()
	runtime.ReadMemStats(&m1)
	after, err := b.fleet.workerCounters(workerCounterNames...)
	if err != nil {
		return nil, err
	}
	ph := &phase{outs: outs, elapsed: elapsed, peakRSS: peak, rounds: len(outs) / len(seq), seqLen: len(seq), workers: map[string]float64{}}
	ph.gcCycles, ph.allocBytes = m1.NumGC-m0.NumGC, m1.TotalAlloc-m0.TotalAlloc
	for _, n := range workerCounterNames {
		ph.workers[n] = after[n] - before[n]
	}
	return ph, nil
}

// failed counts the phase's failed requests, printing the first few
// failures to standard error.
func (ph *phase) failed() int {
	n := 0
	for _, o := range ph.outs {
		if o.err != nil {
			if n < 5 {
				fmt.Fprintf(os.Stderr, "request %d failed: %v\n", o.index, o.err)
			}
			n++
		}
	}
	return n
}

// reqPerS is completed requests per second of the phase.
func (ph *phase) reqPerS() float64 {
	ok := 0
	for _, o := range ph.outs {
		if o.err == nil {
			ok++
		}
	}
	return float64(ok) / ph.elapsed.Seconds()
}

// roundRate is completed requests per second, taken as the round size
// over the median round time. A round's time is robust to a transient
// stall of the host that a whole-phase mean would absorb.
func (ph *phase) roundRate() float64 {
	var secs []float64
	for _, d := range roundTimes(ph.outs, ph.seqLen) {
		secs = append(secs, d.Seconds())
	}
	return float64(ph.seqLen) / median(secs)
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (b *bench) endToEnd(ph *phase) (map[string]metric, error) {
	var lat, ttfb []float64
	for _, o := range ph.outs {
		if o.err == nil {
			lat = append(lat, ms(o.latency))
			ttfb = append(ttfb, ms(o.ttfb))
		}
	}
	p95, ok := tailPercentile(lat, 0.95)
	if !ok {
		return nil, fmt.Errorf("only %d successful requests: too few for a 95th percentile with ten samples beyond it", len(lat))
	}
	return map[string]metric{
		"setup_s":        {b.setupS, "s"},
		"req_per_s":      {ph.roundRate(), "1/s"},
		"latency_p50_ms": {median(lat), "ms"},
		"latency_p95_ms": {p95, "ms"},
		"ttfb_p50_ms":    {median(ttfb), "ms"},
		"peak_rss_mb":    {ph.peakRSS, "MB"},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the nearest-rank p-th percentile, reported only when
// at least ten samples lie beyond it.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 || len(s)-rank < 10 {
		return 0, false
	}
	return s[rank-1], true
}

// rssSampler records the process's peak resident set while it runs.
type rssSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startRSSSampler() (*rssSampler, error) {
	peak, err := residentMB()
	if err != nil {
		return nil, err
	}
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				s.done <- peak
				return
			case <-tick.C:
				if mb, err := residentMB(); err == nil {
					peak = max(peak, mb)
				}
			}
		}
	}()
	return s, nil
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	return <-s.done
}

// residentMB reads the process's resident set from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}
