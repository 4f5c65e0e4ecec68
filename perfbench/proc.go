package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
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

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux platform Go supports).
const clockTick = 10 * time.Millisecond

// pland is one running cmd/pland process.
type pland struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  bytes.Buffer
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startPland launches the pland binary on addr with extra flags. The
// child is killed if the benchmark dies first.
func startPland(o options, name, addr string, extra ...string) (*pland, error) {
	args := append([]string{"-addr", addr}, extra...)
	p := &pland{name: name, url: "http://" + addr, done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(o.bin, "pland"), args...)
	p.cmd.Stdout = &p.log
	p.cmd.Stderr = &p.log
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pland: %w", err)
	}
	go func() {
		_ = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop drains the process with SIGTERM and waits for it to exit,
// killing it if the drain takes longer than ten seconds.
func (p *pland) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// pid is the process id.
func (p *pland) pid() int { return p.cmd.Process.Pid }

// errExited reports a pland that exited during start-up.
var errExited = errors.New("pland exited during start-up")

// waitHealthy polls /healthz until it answers 200. The process log is
// read only once the process has exited and its output is complete.
func (p *pland) waitHealthy(c *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%w: %s: %s", errExited, p.name, p.log.String())
		default:
		}
		resp, err := c.Get(p.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.stop()
	return fmt.Errorf("pland %s not healthy after 20s: %s", p.name, p.log.String())
}

// procCPU returns the user+system CPU time pid has consumed, summed
// over its threads.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it are
	// fixed: utime and stime are the 12th and 13th past the ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// resetPeakRSS restarts pid's peak resident set count (VmHWM) from its
// current resident set, so a later procPeakRSS covers only what follows.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// procPeakRSS returns pid's peak resident set size in MiB (VmHWM).
func procPeakRSS(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// scrape reads a pland's /metrics exposition into a sample map keyed
// by the full series name, labels included.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after−before of one series.
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}
