package main

// The closed-loop load generator and the per-request output checks.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"slices"
	"strconv"
	"sync"
	"time"

	"ipim"
)

// reply is one response as the client saw it.
type reply struct {
	status  int
	header  http.Header
	body    []byte
	ttfb    time.Duration // to the first response byte; for a stream, the first whole output frame
	latency time.Duration // to the last response byte
}

// requestTimeout bounds one request, so that a hung server ends the run.
const requestTimeout = 60 * time.Second

// send posts o to base and reads the whole response.
func send(c *http.Client, base string, o *op) (reply, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var first time.Time
	if o.frames == 0 {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotFirstResponseByte: func() { first = time.Now() }})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, o.url(base), bytes.NewReader(o.body))
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	var body []byte
	if o.frames > 0 && resp.StatusCode == http.StatusOK && len(o.want.body) > 0 {
		// Every output frame has the same size: read the first one whole.
		body = make([]byte, len(o.want.body)/o.frames)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return reply{}, fmt.Errorf("reading the first output frame: %w", err)
		}
		first = time.Now()
		rest, err := io.ReadAll(resp.Body)
		if err != nil {
			return reply{}, fmt.Errorf("reading the stream: %w", err)
		}
		body = append(body, rest...)
	} else if body, err = io.ReadAll(resp.Body); err != nil {
		return reply{}, fmt.Errorf("reading the response: %w", err)
	}
	end := time.Now()
	if first.IsZero() {
		first = end
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: body, ttfb: first.Sub(t0), latency: end.Sub(t0)}, nil
}

// check verifies a response against the op's expectation: status,
// pixels or bins, frame count, instruction count, the cycle header's
// presence and bound, and the artifact-cache label.
func check(o *op, r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", o.key(), r.status, r.body)
	}
	h := r.header
	if o.cache != "" && h.Get("X-Ipim-Cache") != o.cache {
		return fmt.Errorf("%s: X-Ipim-Cache %q, want %q", o.key(), h.Get("X-Ipim-Cache"), o.cache)
	}
	cycles := h.Get("X-Ipim-Cycles")
	if o.mode == ipim.FunctionalMode && cycles != "" {
		return fmt.Errorf("%s: functional response carries X-Ipim-Cycles %s", o.key(), cycles)
	}
	if o.frames > 0 {
		if got := h.Get("X-Ipim-Stream-Frames"); got != strconv.Itoa(o.frames) {
			return fmt.Errorf("%s: X-Ipim-Stream-Frames %q, want %d", o.key(), got, o.frames)
		}
	} else {
		n, err := strconv.ParseInt(h.Get("X-Ipim-Instructions"), 10, 64)
		if err != nil || n != o.want.issued {
			return fmt.Errorf("%s: X-Ipim-Instructions %q, want %d", o.key(), h.Get("X-Ipim-Instructions"), o.want.issued)
		}
		if o.mode != ipim.FunctionalMode {
			// Each vault issues at most one instruction per cycle.
			c, err := strconv.ParseInt(cycles, 10, 64)
			if err != nil || c < n {
				return fmt.Errorf("%s: X-Ipim-Cycles %q, want at least X-Ipim-Instructions %d", o.key(), cycles, n)
			}
		}
	}
	return checkBody(o, r.body)
}

// checkBody compares an encoded output with the reference.
func checkBody(o *op, body []byte) error {
	if o.want.bins != nil {
		var got struct {
			Bins []int32 `json:"bins"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("%s: histogram response: %v", o.key(), err)
		}
		if !slices.Equal(got.Bins, o.want.bins) {
			return fmt.Errorf("%s: histogram bins differ from the reference", o.key())
		}
		return nil
	}
	if !bytes.Equal(body, o.want.body) {
		at := 0
		for at < len(body) && at < len(o.want.body) && body[at] == o.want.body[at] {
			at++
		}
		return fmt.Errorf("%s: output differs from the reference at byte %d of %d", o.key(), at, len(o.want.body))
	}
	return nil
}

// outcome is one attempted request.
type outcome struct {
	index   int           // position in the request stream (plan.at)
	done    time.Duration // completion, from the start of the phase
	err     error
	ttfb    time.Duration
	latency time.Duration
}

// drive runs the closed loop in rounds of seqLen requests. parts[c]
// lists the round positions client c sends, in order; a client sends
// its next request only after the previous reply's last byte. A round
// starts when every request of the previous one has completed. Once at
// least minDur has passed and minReqs requests have been sent, no new
// round starts, so every run attempts whole rounds. do sends request i,
// which is position i%seqLen of round i/seqLen.
func drive(parts [][]int, seqLen int, minDur time.Duration, minReqs int, do func(i int) outcome) ([]outcome, time.Duration) {
	var (
		mu   sync.Mutex
		outs []outcome
	)
	start := time.Now()
	for r := 0; ; r++ {
		var wg sync.WaitGroup
		for _, part := range parts {
			wg.Add(1)
			go func(part []int) {
				defer wg.Done()
				for _, j := range part {
					i := r*seqLen + j
					out := do(i)
					out.index, out.done = i, time.Since(start)
					mu.Lock()
					outs = append(outs, out)
					mu.Unlock()
				}
			}(part)
		}
		wg.Wait()
		if (r+1)*seqLen >= minReqs && time.Since(start) >= minDur {
			return outs, time.Since(start)
		}
	}
}

// roundTimes returns each round's duration, from the end of the
// previous round to its own last reply.
func roundTimes(outs []outcome, seqLen int) []time.Duration {
	ends := make([]time.Duration, len(outs)/seqLen)
	for _, o := range outs {
		r := o.index / seqLen
		ends[r] = max(ends[r], o.done)
	}
	var prev time.Duration
	rounds := make([]time.Duration, len(ends))
	for r, e := range ends {
		e = max(e, prev)
		rounds[r], prev = e-prev, e
	}
	return rounds
}
