package loadgen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// BuildPsmd compiles the real cmd/psmd from the repository at repoRoot
// into binDir and returns the binary's path.
func BuildPsmd(repoRoot, binDir string) (string, error) {
	if _, err := os.Stat(filepath.Join(repoRoot, "cmd", "psmd")); err != nil {
		return "", fmt.Errorf("no cmd/psmd under %s: the benchmark needs the repository it measures", repoRoot)
	}
	if err := os.MkdirAll(binDir, 0o777); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "psmd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/psmd")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/psmd: %v\n%s", err, out)
	}
	return bin, nil
}

// live holds every psmd started and not yet killed, so that a signal
// handler can stop them all (KillAll) before the benchmark exits.
var (
	liveMu sync.Mutex
	live   = map[*Psmd]struct{}{}
)

// KillAll stops every psmd this process still has running.
func KillAll() {
	liveMu.Lock()
	procs := make([]*Psmd, 0, len(live))
	for p := range live {
		procs = append(procs, p)
	}
	liveMu.Unlock()
	for _, p := range procs {
		p.Kill()
	}
}

// Psmd is one running psmd process.
type Psmd struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	log     *os.File
	probe   *http.Client
}

// StartPsmd execs bin on a free loopback port with extra flags (all
// other flags stay at psmd's defaults, so the numbers are what a user
// gets) and returns once /readyz answers 200. psmd's log goes to
// logPath.
func StartPsmd(bin, logPath string, extra ...string) (*Psmd, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	p := &Psmd{
		cmd:     exec.Command(bin, append([]string{"-addr", addr}, extra...)...),
		base:    "http://" + addr,
		logPath: logPath,
		log:     log,
		probe:   &http.Client{Timeout: 5 * time.Second},
	}
	p.cmd.Stdout, p.cmd.Stderr = log, log
	if err := p.cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	liveMu.Lock()
	live[p] = struct{}{}
	liveMu.Unlock()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := p.probe.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.Kill()
			return nil, fmt.Errorf("psmd not ready after 60s (log: %s)", p.LogTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Kill stops psmd with SIGKILL and waits for it to end. Nothing psmd
// holds needs a graceful exit — every data directory is the
// benchmark's own and is deleted afterwards — and SIGKILL is also what
// the recovery check needs.
func (p *Psmd) Kill() {
	liveMu.Lock()
	_, running := live[p]
	delete(live, p)
	liveMu.Unlock()
	if !running {
		return
	}
	p.cmd.Process.Signal(syscall.SIGKILL)
	p.cmd.Wait()
	p.log.Close()
}

// LogTail returns the last few hundred bytes of psmd's log, for error
// messages.
func (p *Psmd) LogTail() string {
	data, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return strings.TrimSpace(string(data))
}

// NewCaller returns a Caller with its own connection to psmd, so that
// clients and connections are one to one.
func (p *Psmd) NewCaller() Caller {
	return &httpCaller{base: p.base, cl: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}}
}

type httpCaller struct {
	base string
	cl   *http.Client
}

func (h *httpCaller) Call(r Request) (int, []byte, error) {
	req, err := http.NewRequest(r.Method, h.base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	if r.ContentType != "" {
		req.Header.Set("Content-Type", r.ContentType)
	}
	resp, err := h.cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// Mallocs reads psmd's cumulative heap allocation count from the
// MemStats block of /debug/pprof/heap?debug=1.
func (p *Psmd) Mallocs() (uint64, error) {
	resp, err := p.probe.Get(p.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/debug/pprof/heap: status %d", resp.StatusCode)
	}
	return ParseMallocs(resp.Body)
}

// ParseMallocs finds "# Mallocs = N" in a debug=1 heap profile.
func ParseMallocs(r io.Reader) (uint64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# Mallocs = "); ok {
			return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no Mallocs line in heap profile")
}

// ResetPeakRSS asks the kernel to restart the process's peak-RSS
// watermark from its current RSS (clear_refs 5). Where the kernel
// refuses, the watermark simply keeps covering the whole process
// lifetime.
func (p *Psmd) ResetPeakRSS() {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", p.cmd.Process.Pid), []byte("5"), 0)
}

// PeakRSSMB reads the process's peak resident set (VmHWM) in MiB, since
// the last ResetPeakRSS.
func (p *Psmd) PeakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return ParseVmHWM(f)
}

// ParseVmHWM finds "VmHWM: N kB" in /proc/<pid>/status and returns MiB.
func ParseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in process status")
}
