package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// clockTicksPerSecond is USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; Linux fixes it at 100 for every architecture Go runs on.
const clockTicksPerSecond = 100

// daemon is one treeqd child process under test.
type daemon struct {
	cmd      *exec.Cmd
	addr     string // 127.0.0.1:<port>
	base     string // http://<addr>
	debugURL string
	client   *http.Client // for the daemon's own endpoints
	conn     *conn        // for generated requests during set-up
}

// live is the daemon currently running, for the signal handler: an
// interrupted run must not leave a treeqd behind.
var live atomic.Pointer[daemon]

// freeAddrs asks the kernel for n unused loopback ports by binding :0, and
// holds all of them until it has the last so that no two are the same.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// startDaemon execs treeqd with default flags on two free ports and waits
// until /v1/healthz answers.  The caller must stop() it.
func startDaemon(bin string) (*daemon, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	addr, debugAddr := addrs[0], addrs[1]
	cmd := exec.Command(bin, "-addr", addr, "-debug-addr", debugAddr)
	// Stdout and Stderr stay nil: os/exec connects them to /dev/null.  Should
	// treeload die without running its deferred stop, the kernel kills the
	// child with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, addr: addr, base: "http://" + addr, debugURL: "http://" + debugAddr, client: &http.Client{}, conn: &conn{addr: addr}}
	live.Store(d)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("treeqd on %s not healthy after 10s: %v", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the child and waits until it has ended.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.conn.close()
	d.cmd.Process.Kill()
	d.cmd.Wait()
	live.CompareAndSwap(d, nil)
}

// conn is one keep-alive HTTP/1.1 connection to the daemon.  It writes each
// request as one buffer and parses the reply on the calling goroutine: the
// benchmark shares its cores with the daemon, and net/http's client, with a
// reader and a writer goroutine per connection, cost more CPU per request
// than treeqd spends answering a cached query.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte
	body bytes.Buffer
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one generated request (suffix is appended to its path) and returns
// the status and the fully read body, which is valid until the next call.
func (c *conn) do(r request, suffix string) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	c.out = append(c.out[:0], r.method...)
	c.out = append(c.out, ' ')
	c.out = append(c.out, r.path...)
	c.out = append(c.out, suffix...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: treeqd\r\nContent-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(len(r.body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, r.body...)
	if _, err := c.c.Write(c.out); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, c.body.Bytes(), err
}

// setUp loads the corpus into a fresh daemon and executes every (document,
// query) plan once, checking each answer: the state in which a daemon starts
// its measurement windows.
func (d *daemon) setUp(o *oracle) error {
	for i, doc := range o.c.docs {
		r := request{method: "PUT", path: "/v1/docs/" + doc.name, body: []byte(doc.states[0].xml), doc: i, q: -1, version: 1}
		status, body, err := d.conn.do(r, "")
		if err != nil {
			return fmt.Errorf("load %s: %w", doc.name, err)
		}
		if why := o.check(r, status, body); why != "" {
			return fmt.Errorf("load %s: %s", doc.name, why)
		}
	}
	for _, r := range o.c.warmRequests() {
		status, body, err := d.conn.do(r, "")
		if err != nil {
			return fmt.Errorf("warm %s: %w", r.kind, err)
		}
		if why := o.check(r, status, body); why != "" {
			return fmt.Errorf("warm %s on doc %d: %s", r.kind, r.doc, why)
		}
	}
	return nil
}

// coldStart times exec → healthy → corpus loaded → every plan executed once.
func coldStart(bin string, o *oracle) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, 0, err
	}
	if err := d.setUp(o); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// scrape is one reading of the daemon's own counters and of its process.
type scrape struct {
	mallocs  float64 // heap objects allocated since start
	hwmKiB   float64 // peak resident set
	rejected float64 // requests shed by the admission gate
}

func (d *daemon) get(url string) ([]byte, error) {
	resp, err := d.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// fieldAfter returns the number following key in text ("# Mallocs = 12").
func fieldAfter(text, key string) (float64, error) {
	i := strings.Index(text, key)
	if i < 0 {
		return 0, fmt.Errorf("%q not found", key)
	}
	fields := strings.Fields(text[i+len(key):])
	if len(fields) == 0 {
		return 0, fmt.Errorf("no value after %q", key)
	}
	return strconv.ParseFloat(fields[0], 64)
}

// stolenTicks reads the CPU time the hypervisor has taken from this machine,
// over all its processors, in clock ticks; 0 where /proc/stat has no such
// column.
func stolenTicks() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[8], 64)
	return v
}

// stolenShare turns a difference of stolenTicks readings taken d apart into a
// share of the machine's CPU time.
func stolenShare(ticks float64, d time.Duration) float64 {
	return ratio(ticks, d.Seconds()*clockTicksPerSecond*float64(runtime.NumCPU()))
}

// cpuTicks reads the CPU time the daemon has used, user and system, in clock
// ticks.
func (d *daemon) cpuTicks() (float64, error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12.
	fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, _ := strconv.ParseFloat(fields[11], 64)
	stime, _ := strconv.ParseFloat(fields[12], 64)
	return utime + stime, nil
}

func (d *daemon) scrape() (scrape, error) {
	var s scrape
	body, err := d.get(d.base + "/v1/statusz")
	if err != nil {
		return s, err
	}
	var status struct {
		Server struct {
			Rejected float64 `json:"rejected_429"`
		} `json:"server"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		return s, fmt.Errorf("statusz: %w", err)
	}
	s.rejected = status.Server.Rejected

	heap, err := d.get(d.debugURL + "/debug/pprof/heap?debug=1")
	if err != nil {
		return s, err
	}
	if s.mallocs, err = fieldAfter(string(heap), "# Mallocs ="); err != nil {
		return s, fmt.Errorf("heap profile: %w", err)
	}

	pid := strconv.Itoa(d.cmd.Process.Pid)
	proc, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return s, err
	}
	if s.hwmKiB, err = fieldAfter(string(proc), "VmHWM:"); err != nil {
		return s, fmt.Errorf("/proc/%s/status: %w", pid, err)
	}
	return s, nil
}
