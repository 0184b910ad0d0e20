package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"ipim"
	"ipim/internal/serve"
)

// served sends o to a standalone server and returns the reply, which
// must pass check.
func served(t *testing.T, o *op) reply {
	t.Helper()
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	r, err := send(ts.Client(), ts.URL, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(o, r); err != nil {
		t.Fatalf("a correct reply fails the check: %v", err)
	}
	return r
}

// corrupt returns a copy of r with the body's last byte (a pixel)
// changed.
func corrupt(r reply) reply {
	c := r
	c.body = append([]byte(nil), r.body...)
	c.body[len(c.body)-1] ^= 1
	return c
}

func withHeader(r reply, name, value string) reply {
	c := r
	c.header = r.header.Clone()
	if value == "" {
		c.header.Del(name)
	} else {
		c.header.Set(name, value)
	}
	return c
}

func TestCheckCatchesWrongProcessReplies(t *testing.T) {
	wl, err := ipim.WorkloadByName("GaussianBlur")
	if err != nil {
		t.Fatal(err)
	}
	o, err := newBuilder(7).process(wl, "opt", ipim.CycleMode, 512, 16, false, "test")
	if err != nil {
		t.Fatal(err)
	}
	o.cache = "miss"
	r := served(t, o)
	issued, _ := strconv.ParseInt(r.header.Get("X-Ipim-Instructions"), 10, 64)
	for name, bad := range map[string]reply{
		"one pixel":            corrupt(r),
		"instruction count":    withHeader(r, "X-Ipim-Instructions", strconv.FormatInt(issued+1, 10)),
		"no instruction count": withHeader(r, "X-Ipim-Instructions", ""),
		"cycles below count":   withHeader(r, "X-Ipim-Cycles", strconv.FormatInt(issued-1, 10)),
		"cache label":          withHeader(r, "X-Ipim-Cache", "hit"),
		"status":               {status: http.StatusInternalServerError, header: r.header, body: r.body},
	} {
		if check(o, bad) == nil {
			t.Errorf("%s: a wrong reply passes the check", name)
		}
	}
}

func TestCheckCatchesWrongHistogramAndFunctionalReplies(t *testing.T) {
	wl, err := ipim.WorkloadByName("Histogram")
	if err != nil {
		t.Fatal(err)
	}
	o, err := newBuilder(7).process(wl, "opt", ipim.FunctionalMode, 512, 16, true, "test")
	if err != nil {
		t.Fatal(err)
	}
	r := served(t, o)
	bins := append([]int32(nil), o.want.bins...)
	bins[0]++
	wrong := *o
	wrong.want = &expect{bins: bins, issued: o.want.issued}
	if check(&wrong, r) == nil {
		t.Error("histogram: a wrong bin passes the check")
	}
	if check(o, withHeader(r, "X-Ipim-Cycles", "1000000")) == nil {
		t.Error("functional: a reply with X-Ipim-Cycles passes the check")
	}
}

func TestCheckCatchesWrongStreamReplies(t *testing.T) {
	wl, err := ipim.WorkloadByName("Brighten")
	if err != nil {
		t.Fatal(err)
	}
	o, err := newBuilder(7).stream(wl, 512, 16, 3, "test")
	if err != nil {
		t.Fatal(err)
	}
	r := served(t, o)
	if check(o, corrupt(r)) == nil {
		t.Error("stream: one wrong pixel passes the check")
	}
	if check(o, withHeader(r, "X-Ipim-Stream-Frames", "2")) == nil {
		t.Error("stream: a wrong frame count passes the check")
	}
	short := r
	short.body = r.body[:len(r.body)/3*2]
	if check(o, short) == nil {
		t.Error("stream: a missing frame passes the check")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestDriveAttemptsWholeRounds(t *testing.T) {
	outs, _ := drive([][]int{{0, 2, 4, 6}, {1, 3, 5}}, 7, 0, 10, func(int) outcome { return outcome{} })
	if len(outs) != 14 {
		t.Fatalf("attempted %d requests, want two whole rounds of 7", len(outs))
	}
}
