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
	"sync"
	"syscall"
	"time"
)

// child is one running `llmq serve` process.
type child struct {
	cmd     *exec.Cmd
	addr    string // host:port it bound (it was given 127.0.0.1:0)
	started time.Time
	boot    time.Duration // exec → first 200 on /readyz
	done    chan struct{} // closed once Wait returned
}

// procs tracks every live child so any exit path can kill them all.
type procs struct {
	mu   sync.Mutex
	live map[*child]struct{}
	n    int
}

func (p *procs) add(c *child) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		p.live = make(map[*child]struct{})
	}
	p.live[c] = struct{}{}
}

func (p *procs) remove(c *child) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, c)
}

// killAll SIGKILLs every live child and waits for each to be reaped.
func (p *procs) killAll() {
	p.mu.Lock()
	var cs []*child
	for c := range p.live {
		cs = append(cs, c)
	}
	p.mu.Unlock()
	for _, c := range cs {
		c.kill(p)
	}
}

// bootTimeout bounds one cold boot; the slowest fixture (200 000 rows)
// boots in well under a second.
const bootTimeout = 60 * time.Second

// startChild execs `llmq serve <args> -addr 127.0.0.1:0`, learns the port
// from the line the server prints when it binds (before it loads anything),
// and polls /readyz until the first 200. boot is measured from just before
// exec, so it holds process start, dataset load, index build and model load
// or WAL recovery — what an operator waits for after a restart.
func (e *env) startChild(args ...string) (*child, error) {
	e.procs.mu.Lock()
	e.procs.n++
	id := e.procs.n
	e.procs.mu.Unlock()
	errPath := filepath.Join(e.tmp, fmt.Sprintf("child-%d.stderr", id))
	errFile, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	defer errFile.Close()
	cmd := exec.Command(e.llmq, append(append([]string{"serve"}, args...), "-addr", "127.0.0.1:0")...)
	cmd.Stderr = errFile
	// If the benchmark dies without running its cleanup (SIGKILL), the
	// kernel still takes the child down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", e.llmq, err)
	}
	e.procs.add(c)
	addrc := make(chan string, 1)
	go func() {
		// Drain stdout for the child's whole life so it never blocks on a
		// full pipe; the first "on http://" line carries the bound address.
		defer close(c.done)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if line := sc.Text(); !sent {
				if i := strings.Index(line, "on http://"); i >= 0 {
					addrc <- strings.TrimSpace(line[i+len("on http://"):])
					sent = true
				}
			}
		}
		if !sent {
			close(addrc)
		}
		_ = cmd.Wait()
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			c.kill(&e.procs)
			return nil, fmt.Errorf("llmq serve exited before binding: %s", tailFile(errPath))
		}
		c.addr = addr
	case <-time.After(bootTimeout):
		c.kill(&e.procs)
		return nil, errors.New("llmq serve printed no listen address")
	case <-e.ctx.Done():
		c.kill(&e.procs)
		return nil, e.ctx.Err()
	}
	cn, err := dial(c.addr)
	if err != nil {
		c.kill(&e.procs)
		return nil, err
	}
	defer cn.close()
	wire := appendHTTP(nil, "GET", "/readyz", nil)
	for {
		status, _, err := cn.roundTrip(wire)
		if err == nil && status == http.StatusOK {
			c.boot = time.Since(c.started)
			return c, nil
		}
		if err != nil || time.Since(c.started) > bootTimeout || e.ctx.Err() != nil {
			c.kill(&e.procs)
			return nil, fmt.Errorf("llmq serve never became ready (status %d, err %v): %s", status, err, tailFile(errPath))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// kill SIGKILLs the child — the crash the durable workload recovers from,
// and the fastest clean-up for the others — and waits until it is reaped.
func (c *child) kill(p *procs) {
	_ = c.cmd.Process.Kill()
	<-c.done
	p.remove(c)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux the Go toolchain targets.
const clockTick = 100

// cpuSeconds returns the child's consumed CPU (utime+stime) in seconds.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14: utime
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15: stime
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return (ut + st) / clockTick, nil
}

// rssPeakMB returns the child's peak resident set (VmHWM) in MB.
func (c *child) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tailFile returns the last few hundred bytes of a file for diagnostics.
func tailFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// conn is one keep-alive HTTP/1.1 connection to the child. Requests are
// written as pre-rendered bytes and the response head is parsed by hand
// (status, Content-Length or chunked — all `llmq serve` ever sends), so the
// load generator spends little CPU of its own and shares the two cores
// with the server as lightly as a Go client can.
type conn struct {
	nc   net.Conn
	br   *bufio.Reader
	body []byte // reused response buffer
}

func dial(addr string) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (c *conn) close() { _ = c.nc.Close() }

// requestTimeout bounds one request; every workload's slowest request is
// tens of milliseconds.
const requestTimeout = 30 * time.Second

// hasPrefixFold reports whether line starts with prefix, ignoring ASCII
// case; prefix is lower-case.
func hasPrefixFold(line []byte, prefix string) bool {
	if len(line) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		b := line[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if b != prefix[i] {
			return false
		}
	}
	return true
}

// send writes one request and reads the response head. length is the
// Content-Length, or -1 for a chunked body.
func (c *conn) send(wire []byte) (status int, length int, err error) {
	if err := c.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, 0, err
	}
	if _, err := c.nc.Write(wire); err != nil {
		return 0, 0, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, 0, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, 0, fmt.Errorf("malformed status line %q", line)
	}
	length = 0
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, 0, err
		}
		if len(line) <= 2 {
			return status, length, nil
		}
		switch {
		case hasPrefixFold(line, "content-length:"):
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len("content-length:"):]))); err != nil {
				return 0, 0, fmt.Errorf("malformed header %q", line)
			}
		case hasPrefixFold(line, "transfer-encoding:"):
			length = -1
		}
	}
}

// roundTrip sends one request and reads the whole response body; the
// returned slice is valid until the next call.
func (c *conn) roundTrip(wire []byte) (status int, body []byte, err error) {
	status, length, err := c.send(wire)
	if err != nil {
		return 0, nil, err
	}
	c.body = c.body[:0]
	if length < 0 {
		err = c.chunks(func(p []byte) error { c.body = append(c.body, p...); return nil })
		return status, c.body, err
	}
	if cap(c.body) < length {
		c.body = make([]byte, 0, length)
	}
	c.body = c.body[:length]
	_, err = io.ReadFull(c.br, c.body)
	return status, c.body, err
}

// chunks reads a chunked body to its end, handing each chunk's bytes to fn
// as they arrive (valid only inside fn).
func (c *conn) chunks(fn func(p []byte) error) error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
		if err != nil {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		for left := int(size); left > 0; {
			p, err := c.br.Peek(min(left, c.br.Size()))
			if err != nil {
				return err
			}
			if err := fn(p); err != nil {
				return err
			}
			left -= len(p)
			if _, err := c.br.Discard(len(p)); err != nil {
				return err
			}
		}
		// The CRLF that ends the chunk (or, after the last chunk, the empty
		// trailer section).
		if _, err := c.br.ReadSlice('\n'); err != nil {
			return err
		}
		if size == 0 {
			return nil
		}
	}
}

// roundTripLines sends one request and hands the response body to onLine
// one '\n'-terminated line at a time as the bytes arrive — the client side
// of the streaming NDJSON protocol. The line is valid only inside onLine.
func (c *conn) roundTripLines(wire []byte, onLine func(line []byte) error) (status int, err error) {
	status, length, err := c.send(wire)
	if err != nil {
		return 0, err
	}
	var part []byte // a line split across chunks
	feed := func(p []byte) error {
		for len(p) > 0 {
			i := bytes.IndexByte(p, '\n')
			if i < 0 {
				part = append(part, p...)
				return nil
			}
			line := p[:i+1]
			if len(part) > 0 {
				part = append(part, line...)
				line = part
			}
			if err := onLine(line); err != nil {
				return err
			}
			part, p = part[:0], p[i+1:]
		}
		return nil
	}
	if length < 0 {
		return status, c.chunks(feed)
	}
	// A refusal (4xx/5xx) is a plain sized body.
	c.body = append(c.body[:0], make([]byte, length)...)
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return status, err
	}
	return status, feed(c.body)
}
