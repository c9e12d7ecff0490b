package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildEmserve compiles cmd/emserve from the checkout at root into
// outDir and returns the binary's path.
func buildEmserve(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "emserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, "./cmd/emserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/emserve in %s: %w\n%s", root, err, out)
	}
	return bin, nil
}

// emserveFlags are the only flags the benchmark passes. Everything
// else keeps its default: -sync-every 0 (fsync only at checkpoints),
// -snapshot-every 4096, -dispatch-pairs 16, -resilience, -model GPT-mini.
func emserveFlags(addr, dir string) []string {
	return []string{"-addr", addr, "-persist", dir}
}

// server is one running emserve child.
type server struct {
	bin  string
	dir  string
	logf string
	base string
	cmd  *exec.Cmd
	done chan struct{} // closed once the child has been reaped
	http *http.Client
}

// freePort asks the OS for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns emserve on dir and returns once /v1/readyz
// answers 200. The child's stderr goes to logf, which failures quote.
// The port is free when the OS hands it out and may be taken by the
// time emserve binds it, so a child that exits early is tried again.
func startServer(ctx context.Context, bin, dir, logf string, hc *http.Client) (*server, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var s *server
		var exited bool
		if s, exited, err = spawn(ctx, bin, dir, logf, hc); err == nil || !exited {
			return s, err
		}
	}
	return nil, err
}

// readyPoll is the shortest gap between two questions to a starting
// server whether it is ready. An empty store is ready five milliseconds
// after the spawn, so the poll starts much finer than that; it then
// widens to a hundredth of the time waited, because a store that
// recovers for 200 ms on two processors was slowed by a tenth by a
// client that kept dialling it every 200 µs.
const readyPoll = 200 * time.Microsecond

// spawn is one attempt of startServer. exited reports that the child
// ended on its own before it was ready.
func spawn(ctx context.Context, bin, dir, logf string, hc *http.Client) (s *server, exited bool, err error) {
	port, err := freePort()
	if err != nil {
		return nil, false, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	log, err := os.OpenFile(logf, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, err
	}
	defer log.Close() // the child keeps its own descriptor
	s = &server{bin: bin, dir: dir, logf: logf, base: "http://" + addr,
		done: make(chan struct{}), http: hc}
	s.cmd = exec.Command(bin, emserveFlags(addr, dir)...)
	s.cmd.Stderr = log
	if err := s.cmd.Start(); err != nil {
		return nil, false, fmt.Errorf("start emserve: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed child carries no news
		close(s.done)
	}()
	t0 := time.Now()
	deadline := t0.Add(60 * time.Second)
	for {
		if resp, err := hc.Get(s.base + "/v1/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, false, nil
			}
		}
		select {
		case <-s.done:
			return nil, true, fmt.Errorf("emserve exited before it was ready\n%s", s.logTail())
		case <-ctx.Done():
			s.kill()
			return nil, false, ctx.Err()
		case <-time.After(max(readyPoll, time.Since(t0)/100)):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, false, fmt.Errorf("emserve not ready after 60s\n%s", s.logTail())
		}
	}
}

// kill sends SIGKILL and waits until the child has ended.
func (s *server) kill() {
	if s == nil || s.cmd == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-s.done
	// Connections to the dead process would fail the next request once
	// a restarted server reuses nothing of them.
	s.http.CloseIdleConnections()
}

// logTail returns the last lines of the child's stderr.
func (s *server) logTail() string {
	b, err := os.ReadFile(s.logf)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return "emserve stderr:\n  " + strings.Join(lines, "\n  ")
}

// rssMB reads the child's resident set, VmRSS of its /proc status, in
// MiB.
func (s *server) rssMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// sampleRSS reads VmRSS every 100 ms until stop is closed and sends
// the samples. The peak (VmHWM) depends on where in a collection cycle
// the phase happened to end; the mean of the samples hardly does.
func (s *server) sampleRSS(stop <-chan struct{}, out chan<- []float64) {
	var samples []float64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- samples
			return
		case <-tick.C:
			if mb, err := s.rssMB(); err == nil {
				samples = append(samples, mb)
			}
		}
	}
}

// diskBytes sums the sizes of the files under the persist directory.
func (s *server) diskBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// stats is the decoded GET /v1/stats body, read by dotted path.
type stats map[string]any

func (st stats) num(path string) float64 {
	var cur any = map[string]any(st)
	for _, k := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[k]
	}
	f, _ := cur.(float64)
	return f
}

func (s *server) stats() (stats, error) {
	resp, err := s.http.Get(s.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var st stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return st, nil
}

// promMetrics is one scrape of GET /v1/metrics: series name with its
// label set, exactly as exposed, to value.
type promMetrics map[string]float64

func (s *server) metrics() (promMetrics, error) {
	resp, err := s.http.Get(s.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	pm := promMetrics{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		// emserve registers each route twice, /v1 and the legacy alias,
		// under one label set; the two series are one route's traffic.
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			pm[line[:i]] += v
		}
	}
	return pm, sc.Err()
}

// sum adds up every series whose name starts with prefix and
// contains each of the given label fragments.
func (pm promMetrics) sum(prefix string, labels ...string) float64 {
	var total float64
series:
	for name, v := range pm {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(name, l) {
				continue series
			}
		}
		total += v
	}
	return total
}
