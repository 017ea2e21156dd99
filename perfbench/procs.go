package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// brokerProc is one cmd/broker process on loopback. The benchmark passes
// only deployment flags; every tuning flag keeps the program's default.
type brokerProc struct {
	id      string
	cmd     *exec.Cmd
	addr    string // broker listen address
	obsAddr string // /metrics listen address
	exited  chan struct{}
	log     string
	stopped bool
}

// startBroker launches a broker and waits until it reports both listen
// addresses. Ports are chosen by the kernel (":0"), so runs never collide.
func startBroker(bin, logDir, id string, args ...string) (*brokerProc, error) {
	all := append([]string{"-id", id, "-listen", "127.0.0.1:0", "-obs-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, all...)
	// Should this process die without tearing down, its brokers die too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logPath := filepath.Join(logDir, id+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start broker %s: %w", id, err)
	}
	b := &brokerProc{id: id, cmd: cmd, exited: make(chan struct{}), log: logPath}
	addrs := make(chan [2]string, 1)
	go func() {
		var a [2]string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "observability on http://"); ok {
				a[1] = strings.TrimSuffix(rest, "/metrics")
			}
			if i := strings.Index(line, " listening on "); i >= 0 {
				a[0] = line[i+len(" listening on "):]
				addrs <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(b.exited)
	}()
	select {
	case a := <-addrs:
		b.addr, b.obsAddr = a[0], a[1]
		return b, nil
	case <-b.exited:
		return nil, fmt.Errorf("broker %s exited during start-up; log %s:\n%s", id, logPath, tail(logPath))
	case <-time.After(10 * time.Second):
		b.stop()
		return nil, fmt.Errorf("broker %s did not report its address within 10s", id)
	}
}

// alive reports whether the process is still running.
func (b *brokerProc) alive() bool {
	select {
	case <-b.exited:
		return false
	default:
		return true
	}
}

// stop terminates the broker (SIGTERM, then SIGKILL after 5s) and waits
// for it to exit.
func (b *brokerProc) stop() {
	b.stopped = true
	if !b.alive() {
		return
	}
	_ = b.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-b.exited:
	case <-time.After(5 * time.Second):
		_ = b.cmd.Process.Kill()
		<-b.exited
	}
}

func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// procSample is what /proc tells about one broker process.
type procSample struct {
	cpuTicks uint64 // utime + stime
	syscr    uint64
	syscw    uint64
	hwmKB    uint64 // peak resident set (VmHWM)
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc/<pid>/stat.
const clockTicks = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	s.cpuTicks = ut + st
	io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(io), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			s.syscr = n
		case "syscw":
			s.syscw = n
		}
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			s.hwmKB, _ = strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return s, nil
}

// scrape is one parsed /metrics exposition: series text → value.
type scrape map[string]float64

var httpClient = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func scrapeMetrics(addr string) (scrape, error) {
	resp, err := httpClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	out := make(scrape)
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
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family whose labels contain all of the
// given `name="value"` pairs.
func (s scrape) sum(family string, labels ...string) float64 {
	var t float64
	for series, v := range s {
		name, lab, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// max returns the largest value among the family's series.
func (s scrape) max(family string) float64 {
	var m float64
	for series, v := range s {
		if name, _, _ := strings.Cut(series, "{"); name == family && v > m {
			m = v
		}
	}
	return m
}

// has reports whether any series of the family carries the labels.
func (s scrape) has(family string, labels ...string) bool {
	for series := range s {
		name, lab, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(lab, l)
		}
		if ok {
			return true
		}
	}
	return false
}

// rssSampler sums the brokers' resident memory every 50ms.
type rssSampler struct {
	done    chan struct{}
	exited  chan struct{}
	samples []float64 // MB
}

func startRSS(bs []*brokerProc) *rssSampler {
	s := &rssSampler{done: make(chan struct{}), exited: make(chan struct{})}
	page := float64(os.Getpagesize())
	go func() {
		defer close(s.exited)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			var sum float64
			for _, b := range bs {
				data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", b.cmd.Process.Pid))
				if f := strings.Fields(string(data)); err == nil && len(f) > 1 {
					pages, _ := strconv.ParseFloat(f[1], 64)
					sum += pages * page / (1 << 20)
				}
			}
			s.samples = append(s.samples, sum)
			select {
			case <-s.done:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples.
func (s *rssSampler) stop() []float64 {
	close(s.done)
	<-s.exited
	return s.samples
}
