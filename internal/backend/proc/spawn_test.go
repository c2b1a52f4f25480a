package proc

import (
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSpawnDrainsStaleHello pins the fix for a respawn-budget leak: a
// hello that arrived while nobody was waiting sits in the rank's cap-1
// buffer, and spawn used to adopt that stale (possibly dead) connection
// as the fresh process's, burning a respawn when it turned out dead.
// spawn must instead close the buffered connection and wait for the new
// process's hello.
func TestSpawnDrainsStaleHello(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()

	c := &Coordinator{
		opt: Options{
			// "true" exits immediately without dialing, so the only way
			// spawn can succeed is by wrongly adopting the stale conn.
			Bin:               "true",
			LogDir:            t.TempDir(),
			HeartbeatInterval: time.Second,
			HeartbeatTimeout:  50 * time.Millisecond,
		},
		socket: filepath.Join(t.TempDir(), "w.sock"),
		hello:  []chan net.Conn{make(chan net.Conn, 1)},
	}
	c.hello[0] <- server

	if err := c.spawn(0); err == nil {
		t.Fatal("spawn succeeded: it adopted the stale buffered hello connection")
	}
	if len(c.hello[0]) != 0 {
		t.Fatal("stale hello connection still buffered after spawn")
	}

	readErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := client.Read(buf)
		readErr <- err
	}()
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("read from stale connection succeeded; want closed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stale connection was not closed by spawn")
	}
}

// TestCloseDuringSpawnReturnsPromptly pins the coordinator's lock
// discipline: spawn waits for its worker's hello without holding c.mu, so
// a Close that races the wait (a watchdog tearing the backend down)
// returns at once instead of waiting out the hello deadline. "true" exits
// without dialing, so spawn waits the whole HeartbeatTimeout.
func TestCloseDuringSpawnReturnsPromptly(t *testing.T) {
	const timeout = time.Second
	socket := filepath.Join(t.TempDir(), "coord.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{
		opt: Options{
			Bin:               "true",
			LogDir:            t.TempDir(),
			HeartbeatInterval: time.Second,
			HeartbeatTimeout:  timeout,
		},
		dir:     t.TempDir(),
		socket:  socket,
		ln:      ln,
		hello:   []chan net.Conn{make(chan net.Conn, 1)},
		workers: make([]*workerProc, 1),
	}
	spawned := make(chan error, 1)
	go func() { spawned <- c.spawn(0) }()
	waitForHelloWait(t)

	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	took := time.Since(start)
	select {
	case err := <-spawned:
		t.Fatalf("spawn returned (%v) before Close did; Close took %v", err, took)
	default:
	}
	if took > timeout/2 {
		t.Fatalf("Close took %v while spawn waited up to %v for a hello", took, timeout)
	}
	if err := <-spawned; err == nil {
		t.Fatal("spawn succeeded without a hello")
	}
}

// waitForHelloWait returns once a goroutine is parked in spawn's hello
// select, so the caller's next step races the wait itself, not the
// process start before it.
func waitForHelloWait(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, ".(*Coordinator).spawn(") {
				return
			}
		}
	}
	t.Fatal("spawn never reached its hello select")
}
