package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// cmdServe runs the scheduling-as-a-service control plane: a
// long-running HTTP server accepting project submissions on POST /run,
// with /healthz and /stats for operators. Runs execute in-process by
// default; -fleet/-control switch to a shared elastic worker fleet.
// SIGTERM/SIGINT drain in-flight runs before exit.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9080", "HTTP listen address (port 0 picks a free one)")
	alg := fs.String("alg", "mh", "default scheduler for submissions naming none")
	maxRuns := fs.Int("max-runs", 0, "concurrently executing runs (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "runs waiting for a slot before 429s (negative = no waiting room)")
	tenantCap := fs.Int("tenant-cap", 8, "per-tenant in-flight cap, X-Tenant header (negative = unlimited)")
	cacheCap := fs.Int("cache", 128, "schedule cache entries (negative = disable caching)")
	virtual := fs.Bool("virtual", false, "stamp traces in deterministic virtual time")
	fleet := fs.String("fleet", "", "execute on worker daemons: comma-separated host:port seed list")
	control := fs.String("control", "", "fleet control listen address for worker -join announces (enables fleet mode; default with -fleet: 127.0.0.1:0)")
	minWorkers := fs.Int("min-workers", 0, "refuse drains leaving fewer live workers (0 = only the last)")
	heartbeat := fs.Duration("heartbeat", 250*time.Millisecond, "fleet keepalive cadence")
	peerTimeout := fs.Duration("peer-timeout", 3*time.Second, "fleet silence budget before a worker is declared dead")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "in-flight budget at shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf := logTo("serve")

	var fl *wire.Fleet
	if *fleet != "" || *control != "" {
		ctl := *control
		if ctl == "" {
			ctl = "127.0.0.1:0"
		}
		fl = &wire.Fleet{
			Transport: wire.TCP(), Control: ctl, Seed: addrList(*fleet), MinWorkers: *minWorkers,
			HeartbeatEvery: *heartbeat, PeerTimeout: *peerTimeout,
			Logf: logf,
		}
		if err := fl.Start(); err != nil {
			return err
		}
		defer fl.Close()
		// The bound control address goes to stdout so scripts can point
		// `banger worker -join` at a ":0" port.
		fmt.Printf("fleet control on %s\n", fl.Addr())
	}

	s := serve.New(serve.Options{
		DefaultAlg: *alg, MaxConcurrent: *maxRuns, QueueDepth: *queue,
		TenantCap: *tenantCap, CacheCap: *cacheCap,
		Fleet: fl, Virtual: *virtual,
	})

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("serving on http://%s\n", lis.Addr())

	srv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(lis) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: refuse new submissions, let in-flight runs
	// finish inside the drain budget, then close the listener.
	logf("draining in-flight runs (budget %v)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		logf("%v", err)
	}
	return srv.Shutdown(dctx)
}
