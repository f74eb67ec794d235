package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readyCap bounds how long a child may take from exec to its "listening
// on" log line plus a passing /healthz.
const readyCap = 10 * time.Second

// env owns everything a run leaves on disk or in the process table: the
// built binaries, one private work directory, and every child process.
// cleanup is safe to call from any exit path, including a signal handler.
type env struct {
	root    string // repository root
	binDir  string
	workDir string

	mu       sync.Mutex
	children map[*child]struct{}
}

// findRoot locates the repository root from the working directory: the
// driver runs the benchmark from the root, `go test` from benchmark/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "hared", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/hared not found: run from the repository root")
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, binDir: filepath.Join(build, "bin"), children: make(map[*child]struct{})}
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return nil, err
	}
	// One directory per run: no file is shared between workloads or runs.
	if e.workDir, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// buildSUT compiles the two programs under test from the checkout.
func (e *env) buildSUT() error {
	cmd := exec.Command("go", "build", "-o", e.binDir+string(filepath.Separator), "./cmd/hared", "./cmd/harecount")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/hared and cmd/harecount: %v\n%s", err, out)
	}
	return nil
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// cleanup kills every child still running, waits for each, and removes
// the work directory.
func (e *env) cleanup() {
	e.mu.Lock()
	kids := make([]*child, 0, len(e.children))
	for c := range e.children {
		kids = append(kids, c)
	}
	e.mu.Unlock()
	for _, c := range kids {
		c.kill()
	}
	os.RemoveAll(e.workDir)
}

// child is one running hared process.
type child struct {
	env  *env
	cmd  *exec.Cmd
	url  string
	logs *logTail
	done chan struct{} // closed when the log reader hit EOF

	stopOnce sync.Once
}

// logTail keeps the last few lines of a child's log for error reports.
type logTail struct {
	mu    sync.Mutex
	lines []string
}

func (t *logTail) add(s string) {
	t.mu.Lock()
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, s)
	t.mu.Unlock()
}

func (t *logTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

var listenRE = regexp.MustCompile(`listening on (\S+) with`)

// spawnHared starts hared on an ephemeral loopback port and returns once
// it serves /healthz; hared logs its resolved address only after every
// -preload finished, so ready means loaded.
func (e *env) spawnHared(args ...string) (*child, error) {
	cmd := exec.Command(e.bin("hared"), append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Dir = e.workDir
	// Should the benchmark die without running its clean-up (a panic on
	// another goroutine, SIGKILL), the kernel ends the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{env: e, cmd: cmd, logs: &logTail{}, done: make(chan struct{})}
	e.mu.Lock()
	e.children[c] = struct{}{}
	e.mu.Unlock()

	addr := make(chan string, 1) // one send: the first listening line
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			c.logs.add(sc.Text())
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				sent = true
				addr <- m[1]
			}
		}
		io.Copy(io.Discard, stderr) // a line beyond the scanner's limit: keep draining
	}()

	timer := time.NewTimer(readyCap)
	defer timer.Stop()
	select {
	case a := <-addr:
		c.url = "http://" + a
	case <-c.done:
		c.kill()
		return nil, fmt.Errorf("hared %v exited before listening:\n%s", args, c.logs)
	case <-timer.C:
		c.kill()
		return nil, fmt.Errorf("hared %v not listening after %v:\n%s", args, readyCap, c.logs)
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	for deadline := time.Now().Add(readyCap); ; time.Sleep(2 * time.Millisecond) {
		resp, err := hc.Get(c.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("hared %v: /healthz not ok after %v (last error: %v)", args, readyCap, err)
		}
	}
}

// stop ends the child (SIGTERM, then SIGKILL after a grace period) and
// waits for it.
func (c *child) stop() {
	c.stopOnce.Do(func() {
		c.cmd.Process.Signal(syscall.SIGTERM)
		grace := time.AfterFunc(3*time.Second, func() { c.cmd.Process.Kill() })
		<-c.done // Wait closes the pipe; the reader must finish first
		c.cmd.Wait()
		grace.Stop()
		c.env.mu.Lock()
		delete(c.env.children, c)
		c.env.mu.Unlock()
	})
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	c.stop()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func rusageCPUms(ru *syscall.Rusage) float64 {
	if ru == nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}
