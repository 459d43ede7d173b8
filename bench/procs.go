package main

import (
	"bytes"
	"encoding/json"
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

// env locates the repository the harness measures and the scratch
// directory (git-ignored, inside the checkout) it builds and logs into.
type env struct {
	root  string // the repository root: the parent of this module
	build string // <root>/.bench_build
	self  string // this executable, re-run for the traced mains
}

func newEnv() (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	// The command runs from bench/ (go -C bench run .); accept the root too.
	root := ""
	for _, dir := range []string{filepath.Dir(wd), wd} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "loadctld", "main.go")); err == nil {
			root = dir
			break
		}
	}
	if root == "" {
		return nil, fmt.Errorf("no cmd/loadctld beside or above %s: run from the repository's bench/ directory", wd)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, build: filepath.Join(root, ".bench_build"), self: self}
	return e, os.MkdirAll(e.build, 0o755)
}

// buildBinaries compiles the real cmd/loadctld and cmd/loadctlproxy. It is
// part of every set-up: a no-op once the go build cache is warm, and where
// a change that slows the build shows.
func (e *env) buildBinaries() error {
	cmd := exec.Command("go", "build", "-o", e.build+string(filepath.Separator), "./cmd/loadctld", "./cmd/loadctlproxy")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/loadctld ./cmd/loadctlproxy: %v\n%s", err, out)
	}
	return nil
}

// proc is one launched server-side process.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	out  bytes.Buffer // stdout+stderr, shown when anything fails
	done chan struct{}
	werr error
}

func startProc(name, addr, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, addr: addr, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	// If the harness itself is killed, the kernel takes the children along.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.werr = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the process and waits until it is gone.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// terminate asks the process to exit (the traced mains write their spans
// on SIGTERM) and falls back to SIGKILL.
func (p *proc) terminate(grace time.Duration) error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		if p.werr != nil {
			return fmt.Errorf("%s: %v\n%s", p.name, p.werr, p.out.String())
		}
		return nil
	case <-time.After(grace):
		p.kill()
		return fmt.Errorf("%s ignored SIGTERM for %s\n%s", p.name, grace, p.out.String())
	}
}

// cpuTicks is the user+system CPU the process has used, in clock ticks
// (USER_HZ, 100 per second on Linux), from /proc/<pid>/stat.
func (p *proc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %s", p.name)
	}
	return ut + st, nil
}

const usPerTick = 1e6 / 100

// peakRSSKB is the process's peak resident set (VmHWM) in KiB.
func (p *proc) peakRSSKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// topology is one launched system: the backends, the optional proxy, and
// the address the client drives.
type topology struct {
	backends []*proc
	proxy    *proc
	target   string   // host:port the client sends /txn to
	spans    []string // span files the traced mains write at SIGTERM
}

func (t *topology) procs() []*proc {
	if t.proxy != nil {
		return append([]*proc{t.proxy}, t.backends...)
	}
	return t.backends
}

// killAll is safe on a partly launched topology and on every exit path.
func (t *topology) killAll() {
	for _, p := range t.procs() {
		p.kill()
	}
}

// logs stops the topology and returns what its processes printed: the
// loud half of a failure.
func (t *topology) logs() string {
	t.killAll()
	var b strings.Builder
	for _, p := range t.procs() {
		fmt.Fprintf(&b, "--- %s (%s) ---\n%s\n", p.name, p.addr, p.out.String())
	}
	return b.String()
}

func cpuTicksOf(ps []*proc) (int64, error) {
	var sum int64
	for _, p := range ps {
		t, err := p.cpuTicks()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// launch starts w's topology and returns once it is ready: every backend
// answers /healthz 200, and the proxy reports all of them alive. With
// traced set it runs this executable's serve-traced / proxy-traced mains
// in place of the real binaries.
func (e *env) launch(w workload, traced bool, runDir string) (*topology, error) {
	t := &topology{}
	ok := false
	defer func() {
		if !ok {
			t.killAll()
		}
	}()
	for i := 0; i < w.backends(); i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("loadctld[%d]", i)
		bin, args := filepath.Join(e.build, "loadctld"), w.serverArgs(addr)
		if traced {
			spans := filepath.Join(runDir, fmt.Sprintf("server%d.spans", i))
			t.spans = append(t.spans, spans)
			parent := spanClientRTT
			if w.proxy {
				parent = spanClusterRelay
			}
			bin, args = e.self, append([]string{"serve-traced", "-spans", spans, "-parent", parent}, args...)
		}
		p, err := startProc(name, addr, bin, args...)
		if err != nil {
			return nil, err
		}
		t.backends = append(t.backends, p)
	}
	for _, p := range t.backends {
		if err := waitReady(p, "/healthz", nil); err != nil {
			return nil, fmt.Errorf("%w\n%s", err, t.logs())
		}
	}
	t.target = t.backends[0].addr
	if w.proxy {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		var addrs []string
		for _, p := range t.backends {
			addrs = append(addrs, p.addr)
		}
		bin := filepath.Join(e.build, "loadctlproxy")
		args := []string{"-addr", addr, "-backends", strings.Join(addrs, ","), "-policy", "threshold"}
		if traced {
			spans := filepath.Join(runDir, "proxy.spans")
			t.spans = append(t.spans, spans)
			bin, args = e.self, append([]string{"proxy-traced", "-spans", spans}, args...)
		}
		p, err := startProc("loadctlproxy", addr, bin, args...)
		if err != nil {
			return nil, err
		}
		t.proxy = p
		allAlive := func(body []byte) bool {
			var snap struct {
				Alive int `json:"alive"`
			}
			return json.Unmarshal(body, &snap) == nil && snap.Alive == len(t.backends)
		}
		if err := waitReady(p, "/metrics?format=json", allAlive); err != nil {
			return nil, fmt.Errorf("%w\n%s", err, t.logs())
		}
		t.target = addr
	}
	ok = true
	return t, nil
}

// waitReady polls path until it answers 200 with a body check accepts.
func waitReady(p *proc, path string, check func([]byte) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if p.exited() {
			return fmt.Errorf("%s exited before it was ready: %v", p.name, p.werr)
		}
		body, code, err := httpGet(p.addr, path)
		if err == nil && code == http.StatusOK && (check == nil || check(body)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready on %s%s after 10s (last: status %d, err %v, body %.200q)", p.name, p.addr, path, code, err, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrapeClient is for readiness polls and metric scrapes only; the load
// generator has its own transport so these never share its connections.
var scrapeClient = &http.Client{Timeout: 2 * time.Second}

func httpGet(addr, path string) ([]byte, int, error) {
	resp, err := scrapeClient.Get("http://" + addr + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func scrapeJSON(addr, path string, v any) error {
	body, code, err := httpGet(addr, path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s%s: status %d", addr, path, code)
	}
	return json.Unmarshal(body, v)
}
