package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir holds what a run leaves behind: the server binary and the trace's
// spans. The harness runs in the benchmark's own directory (go run -C
// bench .), so this is bench/out in the checkout, and it is git-ignored.
const outDir = "out"

// buildServer compiles cmd/hpmserve of the tree this module sits in: the
// replace directive in go.mod points hpm at the parent directory.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "hpmserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "hpm/cmd/hpmserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build hpm/cmd/hpmserve (run from the bench directory of a checkout): %v\n%s", err, out)
	}
	return bin, nil
}

// newDataDir places the run's data directory on tmpfs when the host has
// one: the WAL's fsync is still issued and counted, but no device wait
// enters the timings. Without a writable /dev/shm it falls back to the
// benchmark's own output directory inside the checkout. The directory is
// registered for removal on exit and its kind recorded in the provenance.
func newDataDir(prov *provenance) (string, error) {
	dir, err := os.MkdirTemp("/dev/shm", "hpmbench-*")
	prov.DataFS = "tmpfs"
	if err != nil {
		prov.DataFS = "checkout"
		if err = os.MkdirAll(outDir, 0o755); err != nil {
			return "", err
		}
		if dir, err = os.MkdirTemp(outDir, "hpmbench-*"); err != nil {
			return "", err
		}
		if dir, err = filepath.Abs(dir); err != nil {
			return "", err
		}
	}
	cleanup.Lock()
	cleanup.dirs = append(cleanup.dirs, dir)
	cleanup.Unlock()
	return dir, nil
}

// cleanup tracks what must not outlive the process: the live child and the
// data directories. run() calls it on every exit path, including signals.
var cleanup struct {
	sync.Mutex
	child *server
	dirs  []string
}

func cleanupAll() {
	cleanup.Lock()
	defer cleanup.Unlock()
	if s := cleanup.child; s != nil {
		_ = s.cmd.Process.Kill() // already exited is fine
		<-s.exited
		cleanup.child = nil
	}
	for _, d := range cleanup.dirs {
		os.RemoveAll(d)
	}
	cleanup.dirs = nil
}

// server is one incarnation of the hpmserve child.
type server struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	log     bytes.Buffer
	exited  chan struct{} // closed once the child has been waited for
	waitErr error         // what Wait returned; read after exited closes
}

// startServer execs hpmserve on a free loopback port over dataDir and
// returns at once; call ready to wait for it.
func startServer(bin, dataDir string) (*server, error) {
	// Binding :0 picks a free port; the listener is closed before the
	// child binds it, and nothing else on loopback races for it here.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{addr: addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin,
		"-addr", addr,
		"-period", strconv.Itoa(period),
		"-min-train", strconv.Itoa(minTrain),
		"-fleet-index",
		"-index-cell", strconv.Itoa(indexCell),
		"-snapshot-every", "0",
		"-data-dir", dataDir,
		// The admission limits are hpmserve's defaults, stated here so the
		// child and the trace's in-process handler share one source.
		"-max-inflight", strconv.Itoa(handlerLimits.MaxInflight),
		"-request-timeout", handlerLimits.RequestTimeout.String(),
		"-shed-policy", handlerLimits.ShedPolicy,
	)
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	// The child dies with the harness even if the harness is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	cleanup.Lock()
	cleanup.child = s
	cleanup.Unlock()
	return s, nil
}

// stop ends the child with sig and waits for it. SIGTERM is the graceful
// path (drain trains, checkpoint); SIGKILL is the crash.
func (s *server) stop(sig syscall.Signal) error {
	cleanup.Lock()
	cleanup.child = nil
	cleanup.Unlock()
	if err := s.cmd.Process.Signal(sig); err != nil {
		return err
	}
	<-s.exited
	var ee *exec.ExitError
	if sig == syscall.SIGKILL && errors.As(s.waitErr, &ee) {
		return nil // killed, as asked
	}
	if s.waitErr != nil {
		return fmt.Errorf("hpmserve exit: %v\n%s", s.waitErr, s.log.String())
	}
	return nil
}

// ready polls /readyz every 2 ms until the store accepts work and no
// background train is pending, then returns how long that took since exec.
func (s *server) ready(timeout time.Duration) (time.Duration, error) {
	deadline := s.started.Add(timeout)
	req := httpRequest("GET", "/readyz", nil)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return 0, fmt.Errorf("hpmserve exited before it was ready: %v\n%s", s.waitErr, s.log.String())
		default:
		}
		c, err := dial(s.addr)
		if err == nil {
			status, body, derr := c.do(req)
			c.close()
			var rz struct {
				Ready  bool `json:"ready"`
				Health struct {
					PendingTrains int `json:"pendingTrains"`
				} `json:"health"`
			}
			if derr == nil && status == 200 && json.Unmarshal(body, &rz) == nil && rz.Ready && rz.Health.PendingTrains == 0 {
				return time.Since(s.started), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("hpmserve not ready after %v\n%s", timeout, s.log.String())
}

// procUsage is what /proc says about the child.
type procUsage struct {
	cpu   time.Duration // utime + stime
	hwmMB float64       // VmHWM, the peak resident set
}

// usage reads the child's CPU time and resident-set peak from /proc.
func (s *server) usage() (procUsage, error) {
	var u procUsage
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks of 1/100 s.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return u, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, _ := strconv.ParseInt(fields[11], 10, 64)
	st, _ := strconv.ParseInt(fields[12], 10, 64)
	const clockTick = 100 // USER_HZ on every Linux the go toolchain supports
	u.cpu = time.Duration(ut+st) * time.Second / clockTick
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, _ := strconv.ParseFloat(f[1], 64)
		if f[0] == "VmHWM:" {
			u.hwmMB = kb / 1024
		}
	}
	return u, nil
}
