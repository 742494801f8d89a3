package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// daemon serves a handler on a loopback port, counting the connections its
// listener accepts.
type daemon struct {
	url     string
	srv     *http.Server
	accepts atomic.Int64
	done    chan struct{}
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

func startDaemon(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(countingListener{ln, &d.accepts}) // returns http.ErrServerClosed on close
	}()
	return d, nil
}

// close stops the daemon and waits for its serve loop to return.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.done
}

// generator is the load generator's HTTP side: a keep-alive client with at
// most `clients` connections per host that reads every body to EOF, so
// connections are reused, and counts its own dials. Its dial count is
// reported beside the program's so a generator artifact can never pass as a
// program change.
type generator struct {
	client *http.Client
	tr     *http.Transport
	dials  atomic.Int64
}

func newGenerator(clients int) *generator {
	g := &generator{}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	g.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			g.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	g.client = &http.Client{Transport: g.tr, Timeout: 60 * time.Second}
	return g
}

func (g *generator) close() { g.tr.CloseIdleConnections() }

// post sends body and returns the status and the whole response body.
func (g *generator) post(url string, body []byte) (int, []byte, error) {
	resp, err := g.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches url and returns the body of a 200 reply.
func (g *generator) get(url string) ([]byte, error) {
	resp, err := g.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return b, nil
}

// opSample is one completed operation of a timed window.
type opSample struct {
	idx        int   // input index (window or batch)
	start, end int64 // ns since the window began
	ok         bool
}

func (s opSample) latencyMS() float64 { return float64(s.end-s.start) / 1e6 }

// timed is one timed window: its ops, what the process consumed over it,
// and the resident size it reached.
type timed struct {
	samples []opSample
	cost    cost
	rss     float64 // MiB, see rssWatch
}

// startWindow collects the set-up's garbage and returns it to the OS, so
// every run starts timing from the same heap rather than inheriting a
// collection that set-up made due, starts watching the resident size
// (rss_peak_mb measures the timed window, not set-up transients such as the
// ingests), and takes the usage snapshot the window is charged from.
func startWindow() (*rssWatch, usage) {
	debug.FreeOSMemory()
	return watchRSS(), readUsage()
}

// endWindow closes a window started by startWindow; the caller adds the
// window's ops.
func endWindow(w *rssWatch, u0 usage) timed {
	u1 := readUsage()
	return timed{cost: costBetween(u0, u1), rss: w.median()}
}

// closedLoop runs clients goroutines, each issuing its next input only
// after the previous one completed, until the deadline passes or the
// inputs run out. do performs input i and reports whether it completed
// without error. An op started before the deadline runs to completion and
// counts, so the window's CPU and allocations cover exactly its ops.
func closedLoop(clients int, d time.Duration, inputs int, do func(i int) bool) timed {
	var next atomic.Int64
	var mu sync.Mutex
	var samples []opSample
	rw, u0 := startWindow()
	origin := u0.at
	deadline := origin.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []opSample
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= inputs {
					break
				}
				t0 := time.Since(origin)
				ok := do(i)
				t1 := time.Since(origin)
				local = append(local, opSample{idx: i, start: t0.Nanoseconds(), end: t1.Nanoseconds(), ok: ok})
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	t := endWindow(rw, u0)
	t.samples = samples
	return t
}

// capture is a pass-through middleware that, while on, hands each request
// body and reply body to record after the handler returns. Traced passes
// use it on the shard daemons to collect the span dumps the shards send
// the router.
type capture struct {
	next   http.Handler
	on     atomic.Bool
	record func(path string, req, resp []byte)
}

func (c *capture) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !c.on.Load() {
		c.next.ServeHTTP(w, r)
		return
	}
	req, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(req))
	tw := &teeWriter{ResponseWriter: w}
	c.next.ServeHTTP(tw, r)
	c.record(r.URL.Path, req, tw.buf.Bytes())
}

type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf.Write(p)
	return t.ResponseWriter.Write(p)
}
