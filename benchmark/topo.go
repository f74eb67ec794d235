package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"hare"
	"hare/internal/server"
	"hare/internal/shard"
)

// topology is what a serve workload runs against: one hared, or two
// workers behind a coordinator.
type topology struct {
	// data lists the datasets as hared's -data flag takes them.
	data []dataFlag
	// live names a mutable dataset (hared -live name:600); "" for none.
	live    string
	cluster bool
}

type dataFlag struct{ name, path string }

// sut is a booted topology. The untraced run boots child processes; the
// traced run boots the same servers inside the benchmark's process, on
// loopback listeners, wired the way cmd/hared wires them.
type sut struct {
	url  string // where clients send requests
	pids []int  // the children, empty when in-process
	stop func()
}

func (t topology) flags() []string {
	args := []string{"-preload"}
	for _, d := range t.data {
		args = append(args, "-data", d.name+"="+d.path)
	}
	if t.live != "" {
		args = append(args, "-live", t.live+":600")
	}
	return args
}

// bootProcs starts the topology as real processes.
func (e *env) bootProcs(t topology) (*sut, error) {
	var kids []*child
	stop := func() {
		for _, c := range kids {
			c.stop()
		}
	}
	spawn := func(args ...string) (*child, error) {
		c, err := e.spawnHared(append(t.flags(), args...)...)
		if err != nil {
			stop()
			return nil, err
		}
		kids = append(kids, c)
		return c, nil
	}
	front := (*child)(nil)
	if t.cluster {
		var peers []string
		for i := 0; i < 2; i++ {
			w, err := spawn("-role", "worker")
			if err != nil {
				return nil, err
			}
			peers = append(peers, w.url)
		}
		co, err := spawn("-role", "coordinator", "-peers", strings.Join(peers, ","))
		if err != nil {
			return nil, err
		}
		front = co
	} else {
		c, err := spawn()
		if err != nil {
			return nil, err
		}
		front = c
	}
	s := &sut{url: front.url, stop: stop}
	for _, c := range kids {
		s.pids = append(s.pids, c.pid())
	}
	return s, nil
}

// bootInProc starts the topology inside this process with a span
// recorded at every public seam. parent is the set-up span the dataset
// loads belong to.
func bootInProc(t topology, tr *tracer, parent int) (*sut, error) {
	var servers []*http.Server
	stop := func() {
		for _, hs := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if hs.Shutdown(ctx) != nil {
				hs.Close()
			}
			cancel()
		}
	}
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		servers = append(servers, hs)
		go hs.Serve(ln) // returns when stop shuts the server down
		return "http://" + ln.Addr().String(), nil
	}
	// node builds one hared: registry, cache and admission around the
	// given backend, every dataset preloaded.
	node := func(role string, be server.Backend) (*hare.Server, error) {
		srv, err := hare.NewServer(hare.ServerOptions{Backend: backend{tr, be}, Role: role, Version: "benchmark"})
		if err != nil {
			return nil, err
		}
		for _, d := range t.data {
			load := tr.loader(parent, hare.FileLoader(d.path, hare.LoadOptions{}, func(string, ...any) {}))
			if err := srv.RegisterSourced(d.name, "graph file "+d.path, load); err != nil {
				return nil, err
			}
			if _, err := srv.Preload(d.name); err != nil {
				return nil, fmt.Errorf("preload %s: %w", d.name, err)
			}
		}
		if t.live != "" {
			ld, err := hare.NewLiveDataset(t.live, hare.LiveOptions{Delta: 600})
			if err != nil {
				return nil, err
			}
			if err := srv.RegisterLive(ld, "live dataset"); err != nil {
				return nil, err
			}
		}
		return srv, nil
	}
	fail := func(err error) (*sut, error) { stop(); return nil, err }

	if !t.cluster {
		srv, err := node("single", hare.LocalBackend())
		if err != nil {
			return fail(err)
		}
		url, err := serve(tr.handler(srv.Handler()))
		if err != nil {
			return fail(err)
		}
		return &sut{url: url, stop: stop}, nil
	}
	var peers []string
	for i := 0; i < 2; i++ {
		srv, err := node("worker", hare.LocalBackend())
		if err != nil {
			return fail(err)
		}
		w := &shard.Worker{Graphs: srv, Backend: hare.LocalBackend(), Version: "benchmark"}
		mux := http.NewServeMux()
		mux.Handle("/", tr.handler(srv.Handler()))
		mux.Handle(shard.PathCompute, tr.workerHandler(w.Handler()))
		mux.Handle(shard.PathInfo, w.Handler())
		url, err := serve(mux)
		if err != nil {
			return fail(err)
		}
		peers = append(peers, url)
	}
	sc, err := shard.NewClient(peers, shard.Policy{}, nil)
	if err != nil {
		return fail(err)
	}
	srv, err := node("coordinator", shard.NewCoordinator(sc))
	if err != nil {
		return fail(err)
	}
	inner := tr.handler(srv.Handler())
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		sc.Metrics().Write(w)
	})
	url, err := serve(mux)
	if err != nil {
		return fail(err)
	}
	return &sut{url: url, stop: stop}, nil
}
