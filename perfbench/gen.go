package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one request of an open-loop run.
type sample struct {
	id         int
	item       int
	gzip       bool
	ok         bool
	due        time.Time
	enq        time.Time // the dispatcher queued it for a connection
	sent, done time.Time // a connection took it; its body ended
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.done.Sub(s.due))
	}
	return out
}

// lateness is how late the dispatcher queued each request; the wait for
// a free connection is part of the request's latency, not of this.
func lateness(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.enq.Sub(s.due))
	}
	return out
}

func tallyOf(ss []sample) tally {
	t := tally{attempted: int64(len(ss))}
	for _, s := range ss {
		if !s.ok {
			t.failed++
		}
	}
	return t
}

// upstreamHeader tells the smoke test's proxy where to forward a request.
const upstreamHeader = "X-Perfbench-Upstream"

// requestIDHeader carries the generator's request ID to the traced
// handler, so client and server spans of one request share it.
const requestIDHeader = "X-Perfbench-Request"

// generator is the open-loop load generator: one process, at most nproc
// connections, one worker per connection.
type generator struct {
	url     string // base URL of the archive's routes
	via     string
	addr    string
	items   []request
	clients []*http.Client
	tr      *tracer
	nextID  int
}

func newGenerator(addr, via string, items []request) *generator {
	g := &generator{url: "http://" + addr, via: via, addr: addr, items: items}
	if via != "" {
		g.url = strings.TrimSuffix(via, "/")
	}
	g.url += "/v1/a/" + archiveName + "/"
	for i := 0; i < nproc(); i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true, // gzip is requested explicitly and checked
			},
		})
	}
	return g
}

// run sends stream[i] at start + i/rate whatever the state of earlier
// requests (an open loop), every gzipEvery-th request advertising gzip,
// and returns one sample per request. A request waits in the queue while
// every connection is busy; its latency counts from its due time.
func (g *generator) run(stream []int, gzipEvery int, rate float64) []sample {
	samples := make([]sample, len(stream))
	// Sized to the number of sends: the dispatcher never blocks, so a
	// stalled server shows up as lateness and latency, not as a slower
	// schedule.
	queue := make(chan int, len(stream))
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			var zr *gzip.Reader
			for i := range queue {
				s := &samples[i]
				s.sent = time.Now()
				s.ok = g.do(c, s, buf, &zr)
				s.done = time.Now()
			}
		}(c)
	}
	// The runtime's timers wake up to a millisecond late (the poller waits
	// in whole milliseconds), which would add up to 1 ms of generator slop
	// to every latency; nanosleep on a dedicated thread wakes within tens
	// of microseconds.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	for i, item := range stream {
		due := start.Add(time.Duration(i) * interval)
		g.nextID++
		samples[i] = sample{id: g.nextID, item: item, due: due,
			gzip: gzipEvery > 0 && i%gzipEvery == gzipEvery-1}
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		samples[i].enq = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	if g.tr != nil {
		for _, s := range samples {
			g.tr.add(span{Name: "client", Start: s.sent, End: s.done, Req: s.id, Gzip: s.gzip})
		}
	}
	return samples
}

// do sends one request and checks status, geometry headers, length and
// body CRC against the expected response.
func (g *generator) do(c *http.Client, s *sample, buf []byte, zr **gzip.Reader) bool {
	q := g.items[s.item]
	req, err := http.NewRequest(http.MethodGet, g.url+q.path(), nil)
	if err != nil {
		return false
	}
	if s.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if g.via != "" {
		req.Header.Set(upstreamHeader, g.addr)
	}
	if g.tr != nil {
		req.Header.Set(requestIDHeader, fmt.Sprint(s.id))
	}
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var body io.Reader = resp.Body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if *zr == nil {
			*zr, err = gzip.NewReader(resp.Body)
		} else {
			err = (*zr).Reset(resp.Body)
		}
		if err != nil {
			return false
		}
		body = *zr
	}
	h := crc32.NewIEEE()
	n, err := io.CopyBuffer(h, body, buf)
	// Drain so the connection is reused even after a mismatch.
	io.Copy(io.Discard, resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK &&
		s.gzip == (resp.Header.Get("Content-Encoding") == "gzip") &&
		resp.Header.Get("X-Tac-Dims") == q.Dims && resp.Header.Get("X-Tac-Region") == q.Region &&
		n == q.Bytes && h.Sum32() == q.CRC
}

// stack is what a serving workload puts in front of tacd: the archive
// file (hot) or an origin standing in for an object store (scan).
type stack struct {
	spec   string // tacd's archive spec: a local path or the origin URL
	path   string // the archive file
	origin *httptest.Server
	// longestRange is the longest byte range the origin served: a remote
	// reader fetches whole read-ahead segments, so once tacd has tuned
	// its reader this is tacd's segment size.
	longestRange atomic.Int64
}

// startStack writes the archive and, for scan, starts the origin: an
// http.ServeContent handler with a strong ETag, so the edge tacd can
// mount it over HTTP Range.
func startStack(p *servePlan, tmp string, blob []byte, tr *tracer) (*stack, error) {
	s := &stack{path: filepath.Join(tmp, archiveName+".taca")}
	if err := os.WriteFile(s.path, blob, 0o644); err != nil {
		return nil, err
	}
	s.spec = s.path
	if p.workload == "scan" {
		etag := fmt.Sprintf("\"%08x\"", crc32.ChecksumIEEE(blob))
		s.origin = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			if n := rangeLen(r.Header.Get("Range")); n > s.longestRange.Load() {
				s.longestRange.Store(n)
			}
			w.Header().Set("ETag", etag)
			http.ServeContent(w, r, archiveName+".taca", time.Time{}, bytes.NewReader(blob))
			if tr != nil {
				tr.add(span{Name: "origin.serve", Start: start, End: time.Now()})
			}
		}))
		s.spec = s.origin.URL + "/" + archiveName + ".taca"
	}
	return s, nil
}

// rangeLen is the length of a single "bytes=a-b" range (0 for any other
// header).
func rangeLen(h string) int64 {
	var a, b int64
	if _, err := fmt.Sscanf(h, "bytes=%d-%d", &a, &b); err != nil {
		return 0
	}
	return b - a + 1
}

func (s *stack) close() {
	if s.origin != nil {
		s.origin.Close()
	}
}

// tacd is a running tacd process built from the tree under test.
type tacd struct {
	cmd  *exec.Cmd
	addr string
	log  bytes.Buffer
	done chan struct{}
	err  error
	once sync.Once
}

func (d *tacd) pid() int { return d.cmd.Process.Pid }

// startTacd starts tacd serving the plan's archive and returns once the
// archive is listed on /v1/archives; the returned duration runs from
// exec to that moment (open, footer parse, remote probe and tuning).
func startTacd(bin string, p *servePlan, spec string) (*tacd, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-listen", addr, "-cache-mb", fmt.Sprint(p.cacheMB)}
	if p.remoteMB > 0 {
		args = append(args, "-remote-cache-mb", fmt.Sprint(p.remoteMB))
	}
	args = append(args, archiveName+"="+spec)
	d := &tacd{addr: addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	// tacd must not outlive the benchmark, even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting tacd: %w", err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.done) }()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("tacd exited during start-up: %v\n%s", d.err, d.log.String())
		default:
		}
		if listed(client, addr) {
			client.CloseIdleConnections()
			return d, time.Since(start), nil
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("tacd did not list the archive within 30s\n%s", d.log.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// listed reports whether the server at addr lists the campaign archive.
func listed(client *http.Client, addr string) bool {
	resp, err := client.Get("http://" + addr + "/v1/archives")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var body struct {
		Archives []struct {
			Name string `json:"name"`
		} `json:"archives"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return false
	}
	for _, a := range body.Archives {
		if a.Name == archiveName {
			return true
		}
	}
	return false
}

// freeAddr returns a loopback address with a port free at the time of
// the call.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// stop sends SIGTERM, waits for the graceful drain, and kills tacd if it
// has not exited within five seconds. It is safe to call more than once.
func (d *tacd) stop() error {
	var err error
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
			err = fmt.Errorf("tacd did not drain within 5s\n%s", d.log.String())
		}
	})
	return err
}
