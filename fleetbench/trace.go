package main

// The traced run: spans recorded in the benchmark's own code around
// each layer it calls into, and the per-layer metrics derived from them.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ipim"
)

// span is one recorded interval. Times are nanoseconds from the start
// of the traced phase; spans of one request share req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

func (t *tracer) start(name string, parent, req int64) *openSpan {
	return &openSpan{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name}, start: time.Now()}
}

// end records the span and returns its duration in milliseconds.
func (o *openSpan) end() float64 {
	now := time.Now()
	o.s.Start = o.start.Sub(o.t.t0).Nanoseconds()
	o.s.End = now.Sub(o.t.t0).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return ms(now.Sub(o.start))
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layerTimes is one traced request's split, in milliseconds.
type layerTimes struct {
	worker                       string
	routed, direct               float64
	decode, compile, run, encode float64
	compiled                     bool // the replay compiled
	routedMiss, directMiss       bool // the worker reported a cache miss
}

// tracedPhase is the traced measured phase's raw figures.
type tracedPhase struct {
	phase
	tracer *tracer
	mu     sync.Mutex
	times  []layerTimes
	arts   artCache           // the replay's artifact cache
	first  map[string]float64 // each key's first replay compile, ms
	counts *counts
	// replicas by worker name; the map is only read during the phase
	replicas map[string]*replica
}

// measureTraced runs the traced phase: each request goes through the
// router, then straight to the worker that served it, then through the
// library calls the server makes, in the server's order, on a replica
// of that worker's pooled machine. It ends with the count pass.
func (b *bench) measureTraced() (*tracedPhase, error) {
	tp := &tracedPhase{tracer: newTracer(), arts: artCache{}, first: map[string]float64{}, replicas: map[string]*replica{}}
	for _, w := range b.fleet.workers {
		m, err := newPooledMachine()
		if err != nil {
			return nil, err
		}
		tp.replicas[w.name] = &replica{m: m}
	}
	seq := b.plan.seq
	tp.outs, tp.elapsed = drive(b.parts, len(seq), time.Duration(b.seconds)*time.Second, len(seq), func(i int) outcome {
		return b.tracedRequest(tp, int64(i), b.plan.at(i))
	})
	var err error
	tp.counts, err = countPass(b.plan)
	return tp, err
}

// replica is a machine standing in for one worker's pooled machine: it
// sees the same requests, one at a time.
type replica struct {
	mu sync.Mutex
	m  *ipim.Machine
}

// newPooledMachine builds a machine configured like a serve worker's
// pooled one: one vault, serial phase schedule.
func newPooledMachine() (*ipim.Machine, error) {
	m, err := ipim.NewMachine(ipim.OneVaultConfig())
	if err != nil {
		return nil, err
	}
	m.SetParallelism(1)
	return m, nil
}

func (b *bench) tracedRequest(tp *tracedPhase, req int64, o *op) outcome {
	t := tp.tracer
	root := t.start("request", 0, req)
	defer root.end()
	var lt layerTimes
	sp := t.start("client.roundtrip", root.s.ID, req)
	r, err := send(b.client, b.fleet.routerURL, o)
	lt.routed = sp.end()
	if err == nil {
		err = check(o, r)
	}
	if err != nil {
		return outcome{err: err}
	}
	lt.worker = r.header.Get("X-Ipim-Worker")
	lt.routedMiss = r.header.Get("X-Ipim-Cache") == "miss"
	url, ok := b.fleet.workerURL(lt.worker)
	rep := tp.replicas[lt.worker]
	if !ok || rep == nil {
		return outcome{err: fmt.Errorf("%s: unknown X-Ipim-Worker %q", o.key(), lt.worker)}
	}
	// The routed copy has just cached the artifact, so the direct copy's
	// cache label is not checked.
	direct := *o
	direct.cache = ""
	sp = t.start("worker.direct", root.s.ID, req)
	r2, err := send(b.client, url, &direct)
	lt.direct = sp.end()
	if err == nil {
		err = check(&direct, r2)
	}
	if err != nil {
		return outcome{err: fmt.Errorf("direct to %s: %w", lt.worker, err)}
	}
	lt.directMiss = r2.header.Get("X-Ipim-Cache") == "miss"
	if err := tp.replay(rep, req, root.s.ID, o, &lt); err != nil {
		return outcome{err: err}
	}
	tp.mu.Lock()
	tp.times = append(tp.times, lt)
	tp.mu.Unlock()
	return outcome{ttfb: r.ttfb, latency: r.latency}
}

// replay makes the library calls the server makes for o, in its order:
// decode, compile on a cache miss, run each plane or frame, encode. A
// stream encodes each frame after running it, holding the machine
// throughout as the server does. The output is checked.
func (tp *tracedPhase) replay(rep *replica, req, parent int64, o *op, lt *layerTimes) error {
	t := tp.tracer
	lib := t.start("library", parent, req)
	defer lib.end()
	sp := t.start("pixel.decode", lib.s.ID, req)
	inputs, err := decode(o)
	lt.decode = sp.end()
	if err != nil {
		return err
	}
	tp.mu.Lock()
	art, ok := tp.arts[o.key()]
	tp.mu.Unlock()
	if lt.routedMiss || !ok {
		sp = t.start("compiler.compile", lib.s.ID, req)
		cfg := ipim.OneVaultConfig()
		art, err = ipim.Compile(&cfg, o.wl.Build().Pipe, o.w, o.h, o.options())
		lt.compile = sp.end()
		if err != nil {
			return fmt.Errorf("compile %s: %w", o.key(), err)
		}
		lt.compiled = true
		tp.mu.Lock()
		tp.arts[o.key()] = art
		if _, seen := tp.first[o.key()]; !seen {
			tp.first[o.key()] = lt.compile
		}
		tp.mu.Unlock()
	}
	if o.hist {
		inputs = inputs[:1]
	}
	var outs []*ipim.Image
	var bins []int32
	var body []byte
	rep.mu.Lock()
	defer rep.mu.Unlock()
	for _, in := range inputs {
		var out runOut
		sp = t.start("sim.run", lib.s.ID, req)
		_, err := runPlane(rep.m, art, in, o.mode, o.hist, &out)
		lt.run += sp.end()
		if err != nil {
			return fmt.Errorf("library run %s: %w", o.key(), err)
		}
		outs, bins = append(outs, out.image), out.bins
		if o.frames > 0 {
			sp = t.start("pixel.encode", lib.s.ID, req)
			enc, err := encodeOutput(o, []*ipim.Image{out.image}, nil)
			lt.encode += sp.end()
			if err != nil {
				return err
			}
			body = append(body, enc...)
		}
	}
	if o.frames == 0 {
		sp = t.start("pixel.encode", lib.s.ID, req)
		body, err = encodeOutput(o, outs, bins)
		lt.encode += sp.end()
		if err != nil {
			return err
		}
	}
	if err := checkBody(o, body); err != nil {
		return fmt.Errorf("library replay: %w", err)
	}
	return nil
}

// decode parses o's body as the server does.
func decode(o *op) ([]*ipim.Image, error) {
	switch {
	case o.frames > 0:
		n := len(o.body) / o.frames
		var ims []*ipim.Image
		for i := 0; i < o.frames; i++ {
			im, err := ipim.ReadPGM(bytes.NewReader(o.body[i*n : (i+1)*n]))
			if err != nil {
				return nil, err
			}
			ims = append(ims, im)
		}
		return ims, nil
	case o.ppm:
		rp, gp, bp, err := ipim.ReadPPM(bytes.NewReader(o.body))
		return []*ipim.Image{rp, gp, bp}, err
	default:
		im, err := ipim.ReadPGM(bytes.NewReader(o.body))
		return []*ipim.Image{im}, err
	}
}

// counts is the count pass: one round of the sequence through the
// library, serially, on a fresh pooled-like machine per mode, after one
// untallied round on the same machine. Every op runs in both modes.
type counts struct {
	cycles, issued      int64
	stalls              [len(ipim.Stats{}.StallCycles)]int64
	simdOps             int64
	rowHits, rowMisses  int64
	cycleNS             int64
	funcIssued, funcNS  int64
	memoHits, memoTotal int64
	memoOK              bool
	ffCycles            int64
	ffOK                bool
}

// The memoizer and fast-forward counters are diagnostics outside
// ipim.Stats; they are read by assertion so that a machine without them
// drops the figure instead of breaking the build.
type memoCounter interface {
	TimingMemoStats() (hits, misses int64)
}

type ffCounter interface {
	FastForwardedCycles() int64
}

func countPass(p *plan) (*counts, error) {
	c := &counts{}
	for _, mode := range []ipim.Mode{ipim.CycleMode, ipim.FunctionalMode} {
		m, err := newPooledMachine()
		if err != nil {
			return nil, err
		}
		var mach any = m
		mc, memoOK := mach.(memoCounter)
		fc, ffOK := mach.(ffCounter)
		var h0, m0, ff0 int64
		for round := 0; round < 2; round++ {
			tally := round == 1
			if tally && memoOK {
				h0, m0 = mc.TimingMemoStats()
			}
			if tally && ffOK {
				ff0 = fc.FastForwardedCycles()
			}
			for _, o := range p.seq {
				art, err := p.arts.get(o)
				if err != nil {
					return nil, err
				}
				inputs := o.inputs
				if o.hist {
					inputs = inputs[:1]
				}
				for _, in := range inputs {
					t0 := time.Now()
					st, err := runPlane(m, art, in, mode, o.hist, nil)
					ns := time.Since(t0).Nanoseconds()
					if err != nil {
						return nil, fmt.Errorf("count pass %s: %w", o.key(), err)
					}
					if !tally {
						continue
					}
					if mode == ipim.FunctionalMode {
						c.funcIssued += st.Issued
						c.funcNS += ns
						continue
					}
					c.cycleNS += ns
					c.cycles += st.Cycles
					c.issued += st.Issued
					for i := range c.stalls {
						c.stalls[i] += st.StallCycles[i]
					}
					c.simdOps += st.SIMDOps
					c.rowHits += st.DRAM.RowHits
					c.rowMisses += st.DRAM.RowMisses
				}
			}
		}
		if mode == ipim.CycleMode {
			if c.memoOK = memoOK; memoOK {
				h1, m1 := mc.TimingMemoStats()
				c.memoHits, c.memoTotal = h1-h0, h1-h0+m1-m0
			}
			if c.ffOK = ffOK; ffOK {
				c.ffCycles = fc.FastForwardedCycles() - ff0
			}
		}
	}
	return c, nil
}

// perLayer computes the per-layer metrics from the untraced phase, the
// traced phase and the count pass.
func (b *bench) perLayer(ph *phase, tp *tracedPhase) (map[string]metric, error) {
	if len(tp.times) == 0 {
		return nil, fmt.Errorf("traced phase completed no request")
	}
	var proxy, overhead, run, dec, enc, compiles []float64
	perWorker := map[string]float64{}
	var direct float64
	for _, lt := range tp.times {
		p := lt.routed - lt.direct
		if lt.routedMiss && !lt.directMiss {
			p -= lt.compile // the routed copy compiled, the direct one did not
		}
		proxy = append(proxy, p)
		s := lt.direct - lt.decode - lt.run - lt.encode
		if lt.directMiss {
			s -= lt.compile
		}
		overhead = append(overhead, s)
		run = append(run, lt.run)
		dec = append(dec, lt.decode)
		enc = append(enc, lt.encode)
		if lt.compiled {
			compiles = append(compiles, lt.compile)
		}
		perWorker[lt.worker] += lt.direct
		direct += lt.direct
	}
	busiest := 0.0
	for _, v := range perWorker {
		busiest = max(busiest, v/direct)
	}
	var compileTotal float64
	for _, v := range tp.first {
		compileTotal += v
	}
	var static, spills int
	for _, art := range tp.arts {
		static += len(art.Prog.Ins)
		if art.LeaderProg != nil {
			static += len(art.LeaderProg.Ins)
		}
		spills += art.Spills
	}
	rounds := float64(ph.rounds)
	c := tp.counts
	m := map[string]metric{
		"fleet.proxy_ms_p50":         {median(proxy), "ms"},
		"fleet.busiest_worker_share": {busiest, "fraction"},
		"serve.overhead_ms_p50":      {median(overhead), "ms"},
		"serve.worker_utilization":   {ph.workers["ipim_worker_busy_seconds"] / (float64(len(workerNames)) * ph.elapsed.Seconds()), "fraction"},
		"serve.cache_misses":         {ph.workers["ipim_artifact_cache_misses_total"] / rounds, "count"},
		"compiler.compile_ms_p50":    {median(compiles), "ms"},
		"compiler.compile_ms_total":  {compileTotal, "ms"},
		"compiler.static_instrs":     {float64(static), "count"},
		"compiler.spills":            {float64(spills), "count"},
		"sim.run_ms_p50":             {median(run), "ms"},
		"sim.cycle_minstr_per_s":     {float64(c.issued) / float64(c.cycleNS) * 1e3, "Minstr/s"},
		"sim.func_minstr_per_s":      {float64(c.funcIssued) / float64(c.funcNS) * 1e3, "Minstr/s"},
		"sim.cycles":                 {float64(c.cycles), "cycles"},
		"sim.issued":                 {float64(c.issued), "count"},
		"sim.ipc":                    {float64(c.issued) / float64(c.cycles), "instr/cycle"},
		"dram.row_hit_ratio":         {float64(c.rowHits) / float64(c.rowHits+c.rowMisses), "fraction"},
		"engine.simd_ops":            {float64(c.simdOps), "count"},
		"pixel.decode_ms_p50":        {median(dec), "ms"},
		"pixel.encode_ms_p50":        {median(enc), "ms"},
		"go.gc_cycles":               {float64(ph.gcCycles) / rounds, "count"},
		"go.alloc_mb":                {float64(ph.allocBytes) / 1e6 / rounds, "MB"},
		"trace.overhead_frac":        {1 - tp.reqPerS()/ph.reqPerS(), "fraction"},
	}
	for i, name := range stallMetricNames {
		m[name] = metric{float64(c.stalls[i]), "cycles"}
	}
	if c.memoOK && c.memoTotal > 0 {
		m["vault.memo_hit_ratio"] = metric{float64(c.memoHits) / float64(c.memoTotal), "fraction"}
	} else {
		fmt.Fprintln(os.Stderr, "per-layer: vault.memo_hit_ratio not reported: the machine has no TimingMemoStats counter or made no memo lookups")
	}
	if c.ffOK {
		m["vault.ff_cycle_share"] = metric{float64(c.ffCycles) / float64(c.cycles), "fraction"}
	} else {
		fmt.Fprintln(os.Stderr, "per-layer: vault.ff_cycle_share not reported: the machine has no FastForwardedCycles counter")
	}
	return m, nil
}

// stallMetricNames follow ipim.Stats.StallCycles' index order.
var stallMetricNames = []string{
	"sim.stall_data_hazard_cycles",
	"sim.stall_inst_queue_full_cycles",
	"sim.stall_dram_queue_full_cycles",
	"sim.stall_branch_bubble_cycles",
	"sim.stall_sync_wait_cycles",
	"sim.stall_icache_miss_cycles",
}
