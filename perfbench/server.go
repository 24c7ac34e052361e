package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// serverProc is one cstream-serve child process.
type serverProc struct {
	cmd      *exec.Cmd
	ingest   string
	httpAddr string
	done     chan struct{} // closed once the process has been waited for
	waitErr  error
}

// freeLoopbackAddr reserves an unused loopback port and releases it for the
// server: cstream-serve prints the -http address it was given, not the one
// it bound, so the benchmark must pick a concrete port itself.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer spawns cstream-serve with the benchmark's fixed configuration
// plus extra flags, and returns once it has printed its bound ingest address.
func startServer(bin string, gomaxprocs int, extra ...string) (*serverProc, error) {
	httpAddr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-listen", "127.0.0.1:0",
		"-http", httpAddr,
		"-seed", strconv.Itoa(serverSeed),
		"-profile-batches", strconv.Itoa(serverProfileBatches),
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = os.Stderr
	// Backstop: the server dies with the benchmark even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, httpAddr: httpAddr, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "cstream-serve: ingest on "); ok {
				addrc <- strings.TrimSpace(a)
			}
			fmt.Fprintln(os.Stderr, "  [server]", line)
		}
		close(addrc)
	}()
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			s.kill()
			return nil, errors.New("cstream-serve exited before listening")
		}
		s.ingest = a
		return s, nil
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("cstream-serve did not start listening within 30s")
	}
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// stop interrupts the server, which closes its listeners and seals its
// segments, and waits for it to exit; a server that hangs is killed.
func (s *serverProc) stop() error {
	_ = s.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	select {
	case <-s.done:
		return s.waitErr
	case <-time.After(10 * time.Second):
		s.kill()
		return errors.New("cstream-serve ignored SIGINT for 10s and was killed")
	}
}

// kill ends the server at once and waits for it.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.done
}

// procSample is the server's CPU time and peak resident set at one instant.
type procSample struct {
	at     time.Time
	cpu    time.Duration // user + system
	hwmKiB int64
}

func (s *serverProc) sample() (procSample, error) {
	now := time.Now()
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return procSample{}, err
	}
	cpu, err := parseProcStatCPU(stat)
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return procSample{}, err
	}
	hwm, err := parseVmHWM(status)
	if err != nil {
		return procSample{}, err
	}
	return procSample{at: now, cpu: cpu, hwmKiB: hwm}, nil
}

// parseProcStatCPU returns utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) is parenthesized and may itself hold spaces or
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime %q or stime %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// parseVmHWM returns the VmHWM (peak resident set) line of
// /proc/<pid>/status in KiB.
func parseVmHWM(b []byte) (int64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: bad VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// scrape is the server's control plane at one instant.
type scrape struct {
	metrics telemetry.Snapshot
	status  serve.Status
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(url string, into any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.Unmarshal(body, into)
}

func (s *serverProc) scrape() (scrape, error) {
	var sc scrape
	if err := getJSON("http://"+s.httpAddr+"/metrics", &sc.metrics); err != nil {
		return sc, err
	}
	if err := getJSON("http://"+s.httpAddr+"/status", &sc.status); err != nil {
		return sc, err
	}
	return sc, nil
}

// waitHTTP polls /status until the control plane answers.
func (s *serverProc) waitHTTP() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st serve.Status
		err := getJSON("http://"+s.httpAddr+"/status", &st)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("control plane did not answer: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// counter reads a counter from a scrape, 0 when absent.
func (sc *scrape) counter(name string) int64 { return sc.metrics.Counters[name] }

// planCache sums the shards' plan-cache counters.
func (sc *scrape) planCache() (hits, lookups int64) {
	for _, sh := range sc.status.Shards {
		hits += sh.PlanCache.Hits + sh.PlanCache.NearMisses
		lookups += sh.PlanCache.Hits + sh.PlanCache.NearMisses + sh.PlanCache.Misses
	}
	return hits, lookups
}
