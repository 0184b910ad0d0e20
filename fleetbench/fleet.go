package main

// The system under test: an in-process fleet router in front of two
// serve workers over loopback HTTP.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"ipim"
	"ipim/internal/fleet"
	"ipim/internal/serve"
)

// workerNames are the workers' fixed advertise URLs. The router places
// keys by these names, so every run places each key on the same worker.
// They are not chosen for balance; the imbalance is measured.
var workerNames = []string{"http://worker-a", "http://worker-b"}

type worker struct {
	name string // advertise URL
	url  string // loopback base URL
	srv  *serve.Server
	http *http.Server
}

type fleetInst struct {
	routerURL string
	router    *fleet.Router
	http      *http.Server
	workers   []*worker
	dial      *http.Transport // the router's transport to the workers
}

// bootFleet starts the router and the workers and returns once the
// router lists every worker as ready.
func bootFleet(cacheCap int) (*fleetInst, error) {
	f := &fleetInst{}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.routerURL = "http://" + rl.Addr().String()
	addrs := map[string]string{} // "worker-a:80" -> loopback host:port
	var wls []net.Listener
	for _, name := range workerNames {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rl.Close()
			for _, l := range wls {
				l.Close()
			}
			return nil, err
		}
		wls = append(wls, l)
		addrs[strings.TrimPrefix(name, "http://")+":80"] = l.Addr().String()
	}
	var d net.Dialer
	f.dial = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if a, ok := addrs[addr]; ok {
				addr = a
			}
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 8,
	}
	// Heartbeats stop only at shutdown; a TTL far above the beat period
	// keeps a CPU-saturated worker from being swept out of the ring.
	f.router = fleet.New(fleet.Config{Client: &http.Client{Transport: f.dial}, WorkerTTL: time.Minute})
	f.http = &http.Server{Handler: f.router}
	go f.http.Serve(rl)
	for i, name := range workerNames {
		srv, err := serve.New(serve.Config{
			Machine:       ipim.OneVaultConfig(),
			Workers:       1,
			CacheCap:      cacheCap,
			RouterURL:     f.routerURL,
			AdvertiseAddr: name,
		})
		if err != nil {
			for _, l := range wls[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		w := &worker{name: name, url: "http://" + wls[i].Addr().String(), srv: srv, http: &http.Server{Handler: srv}}
		f.workers = append(f.workers, w)
		go w.http.Serve(wls[i])
	}
	if err := f.waitReady(10 * time.Second); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// waitReady polls the router's worker list until every worker is ready.
func (f *fleetInst) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ready, err := f.readyWorkers()
		if err == nil && ready == len(workerNames) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not ready after %v (%d/%d workers, last error %v)", limit, ready, len(workerNames), err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (f *fleetInst) readyWorkers() (int, error) {
	resp, err := http.Get(f.routerURL + "/fleet/workers")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var list struct {
		Workers []struct {
			State string `json:"state"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return 0, err
	}
	n := 0
	for _, w := range list.Workers {
		if w.State == "ready" {
			n++
		}
	}
	return n, nil
}

// workerURL maps an X-Ipim-Worker name to the worker's loopback URL.
func (f *fleetInst) workerURL(name string) (string, bool) {
	for _, w := range f.workers {
		if w.name == name {
			return w.url, true
		}
	}
	return "", false
}

// close shuts the workers down (each sends its final draining beat to
// the router), then the router.
func (f *fleetInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	report := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet shutdown: %s: %v\n", what, err)
		}
	}
	for _, w := range f.workers {
		report(w.name+" listener", w.http.Shutdown(ctx))
		report(w.name+" pool", w.srv.Shutdown(ctx))
	}
	report("router listener", f.http.Shutdown(ctx))
	f.router.Close()
	f.dial.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// workerCounters sums counters from every worker's /metrics.
func (f *fleetInst) workerCounters(names ...string) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, w := range f.workers {
		resp, err := http.Get(w.url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				continue
			}
			for _, n := range names {
				if name == n {
					v, err := strconv.ParseFloat(val, 64)
					if err != nil {
						resp.Body.Close()
						return nil, fmt.Errorf("metric %s: %w", n, err)
					}
					sum[n] += v
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	for _, n := range names {
		if _, ok := sum[n]; !ok {
			return nil, fmt.Errorf("workers export no metric %s", n)
		}
	}
	return sum, nil
}
