// Command proxserve runs the persistent consensus service: a daemon
// hosting many concurrent BA instances over shared TCP connections,
// accepting proposals on a line-oriented client API and streaming
// decisions back (see internal/service for the protocol).
//
//	proxserve -n 4 -t 1 -listen 127.0.0.1:7000
//	proxserve -n 7 -t 2 -kappa 6 -max-active 128 -batch 16 -duration 60s
//
// The periodic report line tracks sustained throughput:
//
//	proxserve: decided=812 (270.7/s) shed=3 active=12 pending=5 instances=204
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"proxcensus/internal/service"
)

func main() {
	var (
		n          = flag.Int("n", 4, "number of parties per BA instance")
		t          = flag.Int("t", 1, "corruption budget per instance (needs 3t < n)")
		kappa      = flag.Int("kappa", service.DefaultKappa, "per-instance security parameter")
		seed       = flag.Int64("seed", 1, "setup seed (keys, coins)")
		listen     = flag.String("listen", "127.0.0.1:0", "client API listen address")
		addrFile   = flag.String("addr-file", "", "write the bound API address to this file (for scripts)")
		maxPending = flag.Int("max-pending", service.DefaultMaxPending, "admission queue depth; a full queue sheds proposals")
		maxActive  = flag.Int("max-active", service.DefaultMaxActive, "maximum concurrent BA instances")
		batch      = flag.Int("batch", service.DefaultBatch, "most proposals one instance decides together")
		maxPayload = flag.Int("max-payload", service.DefaultMaxPayload, "largest accepted proposeb payload in bytes")
		retryAfter = flag.Duration("retry-after", service.DefaultRetryAfter, "backoff hint attached to shed proposals")
		roundTO    = flag.Duration("round-timeout", 10*time.Second, "per-instance round deadline")
		duration   = flag.Duration("duration", 0, "exit after this long (0 = run until SIGINT/SIGTERM)")
		report     = flag.Duration("report", 5*time.Second, "periodic stats report interval (0 = silent)")
	)
	flag.Parse()
	if err := run(*n, *t, *kappa, *seed, *listen, *addrFile, *maxPending, *maxActive, *batch, *maxPayload,
		*retryAfter, *roundTO, *duration, *report); err != nil {
		fmt.Fprintf(os.Stderr, "proxserve: %v\n", err)
		os.Exit(1)
	}
}

// preflight rejects bad parameter combinations before any setup or
// socket work: service.Config.Validate for everything the service
// checks, then the flags only the daemon reads.
func preflight(cfg service.Config, report time.Duration) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	switch {
	case cfg.RetryAfter <= 0:
		return fmt.Errorf("-retry-after must be positive, got %s", cfg.RetryAfter)
	case cfg.RoundTimeout <= 0:
		return fmt.Errorf("-round-timeout must be positive, got %s", cfg.RoundTimeout)
	case report < 0:
		return fmt.Errorf("-report must be non-negative, got %s", report)
	}
	return nil
}

func run(n, t, kappa int, seed int64, listen, addrFile string, maxPending, maxActive, batch, maxPayload int,
	retryAfter, roundTO, duration, report time.Duration) error {
	cfg := service.Config{
		N: n, T: t, Kappa: kappa, Seed: seed,
		MaxPending: maxPending, MaxActive: maxActive, Batch: batch,
		MaxPayload:   maxPayload,
		RetryAfter:   retryAfter,
		RoundTimeout: roundTO,
	}
	if err := preflight(cfg, report); err != nil {
		return err
	}

	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	defer func() { _ = svc.Close() }()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer func() { _ = ln.Close() }()
	fmt.Printf("proxserve: serving n=%d t=%d kappa=%d on %s (max-active=%d batch=%d max-pending=%d max-payload=%d)\n",
		n, t, kappa, ln.Addr(), maxActive, batch, maxPending, maxPayload)
	if addrFile != "" {
		if err := writeAddrFile(addrFile, ln.Addr().String()); err != nil {
			return err
		}
	}

	apiDone := make(chan error, 1)
	go func() { apiDone <- svc.ServeAPI(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	var expire <-chan time.Time
	if duration > 0 {
		timer := time.NewTimer(duration)
		defer timer.Stop()
		expire = timer.C
	}
	var tick <-chan time.Time
	if report > 0 {
		ticker := time.NewTicker(report)
		defer ticker.Stop()
		tick = ticker.C
	}

	start := time.Now()
	lastDecided := int64(0)
	lastTick := start
loop:
	for {
		select {
		case sig := <-sigCh:
			fmt.Printf("proxserve: %s, draining\n", sig)
			break loop
		case <-expire:
			fmt.Printf("proxserve: %s elapsed, draining\n", duration)
			break loop
		case now := <-tick:
			st := svc.Stats()
			rate := float64(st.Decided-lastDecided) / now.Sub(lastTick).Seconds()
			fmt.Printf("proxserve: decided=%d (%.1f/s) shed=%d active=%d pending=%d instances=%d\n",
				st.Decided, rate, st.Shed, st.Active, st.Pending, st.Instances)
			lastDecided, lastTick = st.Decided, now
		case err := <-apiDone:
			if err != nil {
				return fmt.Errorf("api: %w", err)
			}
			break loop
		}
	}

	_ = ln.Close()
	if err := svc.Close(); err != nil {
		return err
	}
	st := svc.Stats()
	elapsed := time.Since(start).Seconds()
	fmt.Printf("proxserve: final decided=%d shed=%d failed=%d instances=%d peak-active=%d decisions/sec=%.1f\n",
		st.Decided, st.Shed, st.Failed, st.Instances, st.PeakActive, float64(st.Decided)/elapsed)
	return nil
}

// writeAddrFile publishes the bound address atomically (write to a
// temp file, rename) so a script polling the path never reads a
// partial address.
func writeAddrFile(path, addr string) error {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
