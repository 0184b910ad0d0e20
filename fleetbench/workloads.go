package main

// The three workloads: their fixed request sequences, seeded inputs and
// the expected output of every request.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/url"

	"ipim"
)

// spec is one benchmark workload.
type spec struct {
	name string
	// cacheCap is each worker's artifact-cache capacity (0: the serve
	// default).
	cacheCap int
	build    func(seed uint64) (*plan, error)
}

// plan is a workload instantiated for one seed.
type plan struct {
	seq    []*op    // one round of the measured request sequence
	warmup []*op    // sent once per set-up, before the measured phase
	arts   artCache // artifacts compiled while building the expectations
}

// op is one request: what is sent and what must come back.
type op struct {
	path    string // "/v1/process" or "/v1/stream"
	wl      ipim.Workload
	optName string
	mode    ipim.Mode
	w, h    int // input geometry
	ppm     bool
	hist    bool // the workload reduces to histogram bins
	frames  int  // frames of a /v1/stream body; 0 for /v1/process
	body    []byte
	inputs  []*ipim.Image // decoded body: one plane, three planes or the frames
	cache   string        // expected X-Ipim-Cache; "" is not checked
	want    *expect
}

// expect is the correct response to an op.
type expect struct {
	body   []byte  // encoded output image(s); nil for histograms
	bins   []int32 // histogram bins
	issued int64   // X-Ipim-Instructions (/v1/process only)
}

// key is the op's artifact key, the router's placement key.
func (o *op) key() string {
	return fmt.Sprintf("%s|%s|%dx%d", o.wl.Name, o.optName, o.w, o.h)
}

func (o *op) url(base string) string {
	q := url.Values{"workload": {o.wl.Name}, "opts": {o.optName}}
	if o.mode == ipim.FunctionalMode {
		q.Set("mode", "functional")
	} else {
		q.Set("mode", "cycle")
	}
	return base + o.path + "?" + q.Encode()
}

func (o *op) options() ipim.Options {
	opts, err := ipim.OptionsByName(o.optName)
	if err != nil {
		panic(err) // option names below are fixed
	}
	return opts
}

var specs = []*spec{
	{name: "warm-cycle", build: buildWarmCycle},
	{name: "cold-compile", cacheCap: coldCacheCap, build: buildColdCompile},
	{name: "stream-functional", build: buildStreamFunctional},
}

// at returns request i of the measured stream: rounds of seq, in order.
func (p *plan) at(i int) *op { return p.seq[i%len(p.seq)] }

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Input make-up. Every width is a multiple of 256 so that all ten
// Table II workloads, the multi-stage ones included, compile for the
// one-vault machine.
const (
	warmW, warmH     = 512, 16
	warmPool         = 2 // PGM inputs per key; plus one PPM input per key
	coldCacheCap     = 4 // per worker; each worker owns more cold keys than this
	streamW, streamH = 512, 32
	streamFrames     = 8
	streamPool       = 2 // videos per key
)

// buildWarmCycle: cycle mode over all ten Table II workloads. One
// round sends, for every key, the first PGM input, then for every key
// the PPM input, then for every key the second PGM input.
func buildWarmCycle(seed uint64) (*plan, error) {
	b := newBuilder(seed)
	p := &plan{arts: b.arts}
	wls := ipim.Workloads()
	for pass := 0; pass < warmPool+1; pass++ {
		for i, wl := range wls {
			var o *op
			var err error
			switch pass {
			case 0, 2:
				o, err = b.process(wl, "opt", ipim.CycleMode, warmW, warmH, false, fmt.Sprintf("%d/pgm%d", i, pass/2))
			default:
				o, err = b.process(wl, "opt", ipim.CycleMode, warmW, warmH, true, fmt.Sprintf("%d/ppm", i))
			}
			if err != nil {
				return nil, err
			}
			o.cache = "hit"
			p.seq = append(p.seq, o)
			if pass == 0 {
				p.warmup = append(p.warmup, b.warm(o))
			}
		}
	}
	return p, nil
}

// multiStage are the multi-stage Table II pipelines, whose compiles
// cost the most.
var multiStage = []string{"StencilChain", "BilateralGrid", "LocalLaplacian", "Interpolate"}

type coldKey struct {
	wl, opts string
	w, h     int
}

// coldKeys is the cold-compile key set, weighted toward multiStage.
var coldKeys = func() []coldKey {
	var ks []coldKey
	for _, g := range []coldKey{{opts: "opt", w: 512, h: 16}, {opts: "baseline2", w: 512, h: 16}, {opts: "opt", w: 1024, h: 16}} {
		for _, wl := range multiStage {
			ks = append(ks, coldKey{wl, g.opts, g.w, g.h})
		}
	}
	return append(ks,
		coldKey{"Histogram", "opt", 512, 16}, coldKey{"Downsample", "opt", 512, 16},
		coldKey{"Histogram", "baseline4", 1024, 16}, coldKey{"Downsample", "baseline2", 1024, 16})
}()

// buildColdCompile: functional mode over keys that cycle wider than
// each worker's artifact cache, so every measured request compiles.
// Each (workload, geometry) has one seeded input. Warm-up uses the
// multi-stage workloads under the baseline3 options, outside the
// measured key set.
func buildColdCompile(seed uint64) (*plan, error) {
	b := newBuilder(seed)
	p := &plan{arts: b.arts}
	for _, k := range coldKeys {
		wl, err := ipim.WorkloadByName(k.wl)
		if err != nil {
			return nil, err
		}
		o, err := b.process(wl, k.opts, ipim.FunctionalMode, k.w, k.h, false, fmt.Sprintf("%s/%dx%d", k.wl, k.w, k.h))
		if err != nil {
			return nil, err
		}
		o.cache = "miss"
		p.seq = append(p.seq, o)
	}
	for _, name := range multiStage {
		wl, err := ipim.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		o, err := b.process(wl, "baseline3", ipim.FunctionalMode, 512, 16, false, fmt.Sprintf("%s/512x16", name))
		if err != nil {
			return nil, err
		}
		p.warmup = append(p.warmup, o)
	}
	return p, nil
}

// streamWorkloads are the streamable single-stage workloads.
var streamWorkloads = []string{"Brighten", "GaussianBlur", "Shift", "Downsample", "Upsample"}

// buildStreamFunctional: functional /v1/stream of multi-frame videos.
// One round sends every key's first video, then every key's second.
func buildStreamFunctional(seed uint64) (*plan, error) {
	b := newBuilder(seed)
	p := &plan{arts: b.arts}
	for v := 0; v < streamPool; v++ {
		for i, name := range streamWorkloads {
			wl, err := ipim.WorkloadByName(name)
			if err != nil {
				return nil, err
			}
			o, err := b.stream(wl, streamW, streamH, streamFrames, fmt.Sprintf("%d/video%d", i, v))
			if err != nil {
				return nil, err
			}
			o.cache = "hit"
			p.seq = append(p.seq, o)
			if v == 0 {
				p.warmup = append(p.warmup, b.warm(o))
			}
		}
	}
	return p, nil
}

// builder generates seeded inputs and their expected outputs. The
// reference interpreter is slow, so outputs are computed once per
// distinct (workload, input) and instruction counts once per (artifact
// key, input).
type builder struct {
	seed   uint64
	arts   artCache
	outs   map[string]*expect // by workload + input id
	issued map[string]int64   // by artifact key + input id
}

func newBuilder(seed uint64) *builder {
	return &builder{seed: seed, arts: artCache{}, outs: map[string]*expect{}, issued: map[string]int64{}}
}

// warm copies an op for the warm-up, where the cache label is not
// checked.
func (b *builder) warm(o *op) *op {
	c := *o
	c.cache = ""
	return &c
}

// inputSeed derives an image seed from the run seed and an input id.
func (b *builder) inputSeed(id string) uint64 {
	h := b.seed
	for _, c := range []byte(id) {
		h = splitmix(h ^ uint64(c))
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (b *builder) process(wl ipim.Workload, optName string, mode ipim.Mode, w, h int, ppm bool, id string) (*op, error) {
	o := &op{path: "/v1/process", wl: wl, optName: optName, mode: mode, w: w, h: h, ppm: ppm, hist: wl.Build().Pipe.Histogram}
	s := b.inputSeed(id)
	var buf bytes.Buffer
	if ppm {
		if err := ipim.WritePPM(&buf, ipim.Synth(w, h, s), ipim.Synth(w, h, s+1), ipim.Synth(w, h, s+2)); err != nil {
			return nil, err
		}
		rp, gp, bp, err := ipim.ReadPPM(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		o.inputs = []*ipim.Image{rp, gp, bp}
	} else {
		if err := ipim.WritePGM(&buf, ipim.Synth(w, h, s)); err != nil {
			return nil, err
		}
		im, err := ipim.ReadPGM(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		o.inputs = []*ipim.Image{im}
	}
	o.body = buf.Bytes()
	return o, b.expectFor(o, id)
}

// stream builds a video of a moving synthetic scene: frame t is the
// w×h window of one larger seeded canvas at an offset that advances by
// a seeded step per frame.
func (b *builder) stream(wl ipim.Workload, w, h, frames int, id string) (*op, error) {
	o := &op{path: "/v1/stream", wl: wl, optName: "opt", mode: ipim.FunctionalMode, w: w, h: h, frames: frames}
	s := b.inputSeed(id)
	dx, dy := 1+int(s%4), int(s/4%3)
	canvas := ipim.Synth(w+dx*frames, h+dy*frames, s)
	var buf bytes.Buffer
	for t := 0; t < frames; t++ {
		f := &ipim.Image{W: w, H: h, Pix: make([]float32, w*h)}
		for y := 0; y < h; y++ {
			row := (y+t*dy)*canvas.W + t*dx
			copy(f.Pix[y*w:(y+1)*w], canvas.Pix[row:row+w])
		}
		start := buf.Len()
		if err := ipim.WritePGM(&buf, f); err != nil {
			return nil, err
		}
		im, err := ipim.ReadPGM(bytes.NewReader(buf.Bytes()[start:]))
		if err != nil {
			return nil, err
		}
		o.inputs = append(o.inputs, im)
	}
	o.body = buf.Bytes()
	return o, b.expectFor(o, id)
}

// artCache holds compiled artifacts by key. It is not goroutine-safe.
type artCache map[string]*ipim.Artifact

// get compiles o's artifact on first use.
func (c artCache) get(o *op) (*ipim.Artifact, error) {
	if art, ok := c[o.key()]; ok {
		return art, nil
	}
	cfg := ipim.OneVaultConfig()
	art, err := ipim.Compile(&cfg, o.wl.Build().Pipe, o.w, o.h, o.options())
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", o.key(), err)
	}
	c[o.key()] = art
	return art, nil
}

// expectFor fills o.want: the reference interpreter's output, encoded
// as the server encodes it, and for /v1/process the instruction count
// of a library run on a fresh machine. That count does not depend on
// machine history or execution mode, so the run is functional.
func (b *builder) expectFor(o *op, id string) error {
	outKey := o.wl.Name + "|" + id
	out, ok := b.outs[outKey]
	if !ok {
		var err error
		if out, err = referenceOutput(o); err != nil {
			return fmt.Errorf("reference %s: %w", o.key(), err)
		}
		b.outs[outKey] = out
	}
	want := &expect{body: out.body, bins: out.bins}
	o.want = want
	if o.frames > 0 {
		return nil
	}
	issuedKey := o.key() + "|" + id
	if n, ok := b.issued[issuedKey]; ok {
		want.issued = n
		return nil
	}
	art, err := b.arts.get(o)
	if err != nil {
		return err
	}
	m, err := ipim.NewMachine(ipim.OneVaultConfig())
	if err != nil {
		return err
	}
	planes := o.inputs
	if o.hist {
		planes = planes[:1]
	}
	for _, in := range planes {
		st, err := runPlane(m, art, in, ipim.FunctionalMode, o.hist, nil)
		if err != nil {
			return fmt.Errorf("library run %s: %w", o.key(), err)
		}
		want.issued += st.Issued
	}
	b.issued[issuedKey] = want.issued
	return nil
}

// referenceOutput runs the reference interpreter over the op's decoded
// inputs. Histograms are taken over the first plane, as the server
// does for a PPM body.
func referenceOutput(o *op) (*expect, error) {
	pipe := o.wl.Build().Pipe
	if pipe.Histogram {
		bins, err := pipe.ReferenceHistogram(o.inputs[0])
		return &expect{bins: bins}, err
	}
	var outs []*ipim.Image
	for _, in := range o.inputs {
		ref, err := pipe.Reference(in)
		if err != nil {
			return nil, err
		}
		outs = append(outs, ref)
	}
	body, err := encodeOutput(o, outs, nil)
	return &expect{body: body}, err
}

// encodeOutput encodes run outputs exactly as the server does: one PGM
// or PPM image, back-to-back PGM frames, or the histogram JSON.
func encodeOutput(o *op, outs []*ipim.Image, bins []int32) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch {
	case bins != nil:
		err = json.NewEncoder(&buf).Encode(map[string]any{"workload": o.wl.Name, "bins": bins})
	case o.ppm:
		err = ipim.WritePPM(&buf, outs[0], outs[1], outs[2])
	default:
		for _, im := range outs {
			if err = ipim.WritePGM(&buf, im); err != nil {
				break
			}
		}
	}
	return buf.Bytes(), err
}

// runPlane runs one plane or frame on m in the given mode. A non-nil
// out receives the output image or histogram.
func runPlane(m *ipim.Machine, art *ipim.Artifact, in *ipim.Image, mode ipim.Mode, hist bool, out *runOut) (ipim.Stats, error) {
	opts := ipim.RunOptions{Mode: mode}
	if hist {
		bins, st, err := ipim.RunHistogramContext(context.Background(), m, art, in, opts)
		if out != nil {
			out.bins = bins
		}
		return st, err
	}
	im, st, err := ipim.RunContext(context.Background(), m, art, in, opts)
	if out != nil {
		out.image = im
	}
	return st, err
}

// runOut receives one plane run's output.
type runOut struct {
	image *ipim.Image
	bins  []int32
}
