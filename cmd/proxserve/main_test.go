package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"proxcensus/internal/service"
)

// TestDaemonEndToEnd is the daemon check the smoke script used to make
// across processes: run(...) exactly as main calls it, found through
// its -addr-file, driven over TCP through the client API, and ended by
// the daemon's own SIGTERM drain. First 64 value proposals at batch 1
// (one BA instance each, up to 64 at once), then 24 payloads of 2 KiB
// batched four to an instance; every proposal must decide and every
// decided payload must equal the proposed bytes.
func TestDaemonEndToEnd(t *testing.T) {
	// run installs its SIGTERM handler after it publishes the address,
	// so a signal could in principle beat it; with this one registered
	// first, an early signal is dropped instead of killing the test
	// binary, and stop() below repeats it until run returns.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	t.Run("values", func(t *testing.T) {
		addr, stop := startDaemon(t, 128, 64, 1, service.DefaultMaxPayload)
		defer stop()
		clients := dialClients(t, addr, 4)
		pending := make([]<-chan service.Result, 64)
		for i := range pending {
			ch, err := clients[i%len(clients)].Propose(1000 + i)
			if err != nil {
				t.Fatalf("proposal %d: %v", i, err)
			}
			pending[i] = ch
		}
		instances := make(map[int]bool)
		for i, ch := range pending {
			res := await(t, i, ch)
			instances[res.Instance] = true
		}
		if len(instances) != len(pending) {
			t.Errorf("%d proposals ran in %d instances, want one each at batch 1", len(pending), len(instances))
		}
	})

	t.Run("payloads", func(t *testing.T) {
		addr, stop := startDaemon(t, service.DefaultMaxPending, 16, 4, 16384)
		defer stop()
		clients := dialClients(t, addr, 2)
		payloads := make([][]byte, 24)
		pending := make([]<-chan service.Result, len(payloads))
		for i := range payloads {
			// Stamped with its index, so no two proposals carry the same
			// bytes and a decision answered to the wrong request shows.
			payloads[i] = bytes.Repeat([]byte{byte(i)}, 2048)
			binary.BigEndian.PutUint64(payloads[i], uint64(i))
			ch, err := clients[i%len(clients)].ProposePayload(payloads[i])
			if err != nil {
				t.Fatalf("payload %d: %v", i, err)
			}
			pending[i] = ch
		}
		for i, ch := range pending {
			if res := await(t, i, ch); !bytes.Equal(res.Payload, payloads[i]) {
				t.Errorf("payload %d: decided %d bytes that differ from the %d proposed", i, len(res.Payload), len(payloads[i]))
			}
		}
	})
}

// startDaemon runs the daemon in-process on an ephemeral port and
// returns its API address once the address file appears. stop sends the
// process SIGTERM until run has drained and returned, and fails the
// test if run reports an error.
func startDaemon(t *testing.T, maxPending, maxActive, batch, maxPayload int) (addr string, stop func()) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- run(4, 1, 1, 1, "127.0.0.1:0", addrFile, maxPending, maxActive, batch, maxPayload,
			service.DefaultRetryAfter, 5*time.Second, 0, 0)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(b))
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before publishing its address: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not publish its address")
		}
	}
	return addr, func() {
		for {
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatalf("SIGTERM: %v", err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("daemon: %v", err)
				}
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
}

func dialClients(t *testing.T, addr string, n int) []*service.Client {
	t.Helper()
	clients := make([]*service.Client, n)
	for i := range clients {
		c, err := service.DialClient(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		clients[i] = c
	}
	return clients
}

// await returns proposal i's result, which must be a committed decision.
func await(t *testing.T, i int, ch <-chan service.Result) service.Result {
	t.Helper()
	select {
	case res := <-ch:
		if !res.Decided || !res.Committed {
			t.Fatalf("proposal %d not decided: %+v", i, res)
		}
		return res
	case <-time.After(30 * time.Second):
		t.Fatalf("proposal %d: no answer", i)
		return service.Result{}
	}
}
