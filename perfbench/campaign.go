package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"nasgo/internal/campaign"
	"nasgo/internal/fsim"
	"nasgo/internal/search"
	"nasgo/internal/trace"
)

// Client polling cadence: status every pollEvery, the partial log every
// logEvery-th poll once the campaign has passed a walltime boundary.
const (
	pollEvery = 20 * time.Millisecond
	logEvery  = 5
)

// campaignHTTP drives an in-process nas-server over loopback HTTP. A unit
// and an op are both one campaign, from submit to DONE.
type campaignHTTP struct {
	w       *workload
	seed    uint64
	pins    pinFile
	clients int
	srv     *server // the untraced phases' server, started at set-up
	data    setupTimes
}

// server is one running nas-server: manager, store and listener.
type server struct {
	dir    string
	mgr    *campaign.Manager
	hs     *http.Server
	base   string
	served chan error
}

func newCampaignHTTP(w *workload, seed uint64, tr *tracer) (instance, error) {
	pins, err := loadPins(pinsJSON)
	if err != nil {
		return nil, err
	}
	c := &campaignHTTP{w: w, seed: seed, pins: pins, clients: runtime.GOMAXPROCS(0)}
	// Each campaign generates its own data; set-up pays one generation so
	// the first op starts as warm as the rest.
	_, c.data.data = newBench(seed)
	if c.srv, err = startServer(nil); err != nil {
		return nil, err
	}
	return c, nil
}

// startServer opens a fresh store and serves it on a loopback port; a
// non-nil tracer wraps the store's filesystem and the HTTP handler.
func startServer(tr *tracer) (*server, error) {
	dir, err := os.MkdirTemp(scratchDir, "store-")
	if err != nil {
		return nil, err
	}
	opts := campaign.Options{}
	if tr != nil {
		opts.FS = timedFS{fsim.OS, tr}
	}
	mgr, _, err := campaign.NewManager(dir, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	mgr.Start()
	var h http.Handler = campaign.NewServer(mgr, campaign.ServerOptions{}).Handler()
	if tr != nil {
		h = timedHandler(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Drain()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{dir: dir, mgr: mgr, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(),
		served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	resp, err := http.Get(s.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the listener, drains the manager, waits for both, and
// removes the store.
func (s *server) stop() error {
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.mgr.Drain()
	<-s.mgr.Done()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// spec is campaign i's submission.
func (c *campaignHTTP) spec(i int) campaign.Spec {
	sh := c.w.shape
	return campaign.Spec{
		Bench: "Combo", Space: "small", Strategy: sh.strategies[i%len(sh.strategies)],
		Agents: sh.agents, Workers: sh.workers, Horizon: sh.horizon, Walltime: sh.walltime,
		Seed:       derive(c.seed, "campaign", i),
		RealEpochs: sh.realEpochs, RealBatchSize: sh.realBatch,
	}
}

func (c *campaignHTTP) run(p *phase) error {
	srv := c.srv
	if p.tr != nil {
		var err error
		if srv, err = startServer(p.tr); err != nil {
			return err
		}
		defer srv.stop()
	}
	tp := &http.Transport{MaxConnsPerHost: c.clients, MaxIdleConnsPerHost: c.clients}
	defer tp.CloseIdleConnections()
	cl := &http.Client{Transport: tp, Timeout: time.Minute}

	var mu sync.Mutex // guards p and next
	next := 0
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if (p.limit > 0 && next >= p.limit) || (p.limit == 0 && !time.Now().Before(p.deadline)) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	m := readMeter()
	// rate sums each client's own ops per busy second, so the idle tail
	// of a client that finished before the others is not counted.
	rate := 0.0
	var wg sync.WaitGroup
	for k := 0; k < c.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start, n := readClock(), 0
			for {
				i, ok := claim()
				if !ok {
					break
				}
				o := c.op(cl, srv.base, i, p.tr)
				n++
				mu.Lock()
				c.record(p, i, o)
				mu.Unlock()
			}
			if n > 0 {
				busy := start.ran().Seconds()
				mu.Lock()
				rate += float64(n) / busy
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.use = m.since()
	if rate > 0 {
		p.busy = time.Duration(float64(p.ops) / rate * float64(time.Second))
	}
	return nil
}

// opResult is what one client saw of one campaign.
type opResult struct {
	lat         time.Duration
	http        []float64 // ms per request
	log         *search.Log
	logBytes    int
	allocations int
	events      []trace.Event
	dropped     int64
	err         error
}

// op submits campaign i and polls it to DONE, then fetches its final log
// and trace.
func (c *campaignHTTP) op(cl *http.Client, base string, i int, tr *tracer) (o opResult) {
	root := tr.begin("op.campaign", 0)
	defer tr.end(root)
	call := func(name, method, path string, body []byte, wantStatus int, out any) ([]byte, http.Header, error) {
		id := tr.begin(name, root)
		t := time.Now()
		b, h, err := request(cl, method, base+path, body, wantStatus)
		o.http = append(o.http, float64(time.Since(t))/1e6)
		tr.end(id)
		if err == nil && out != nil {
			err = json.Unmarshal(b, out)
		}
		return b, h, err
	}
	spec := c.spec(i)
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	start := readClock()
	var info campaign.Info
	if _, _, o.err = call("http.submit", http.MethodPost, "/campaigns", body, http.StatusCreated, &info); o.err != nil {
		return o
	}
	for polls := 1; info.Status != campaign.StatusDone; polls++ {
		if info.Status.Terminal() {
			o.err = errorf("campaign %d ended %s: %s", i, info.Status, info.Error)
			return o
		}
		time.Sleep(pollEvery)
		if _, _, o.err = call("http.status", http.MethodGet, "/campaigns/"+info.ID, nil, http.StatusOK, &info); o.err != nil {
			return o
		}
		if polls%logEvery == 0 && info.Allocations > 0 && info.Status != campaign.StatusDone {
			if _, _, o.err = call("http.log", http.MethodGet, "/campaigns/"+info.ID+"/log", nil, http.StatusOK, nil); o.err != nil {
				return o
			}
		}
	}
	o.lat = start.ran()
	o.allocations = info.Allocations
	b, _, err := call("http.log", http.MethodGet, "/campaigns/"+info.ID+"/log", nil, http.StatusOK, &o.log)
	if err != nil {
		o.err = err
		return o
	}
	o.logBytes = len(b)
	b, h, err := call("http.trace", http.MethodGet, "/campaigns/"+info.ID+"/trace", nil, http.StatusOK, nil)
	if err != nil {
		o.err = err
		return o
	}
	if o.events, o.err = trace.ReadJSONL(bytes.NewReader(b)); o.err != nil {
		return o
	}
	var nextCursor int64
	if _, err := fmt.Sscan(h.Get("X-Trace-Next"), &nextCursor); err == nil {
		o.dropped = nextCursor - int64(len(o.events))
	}
	return o
}

// request performs one API call and insists on the expected status.
func request(cl *http.Client, method, url string, body []byte, want int) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		return nil, nil, errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, resp.Header, nil
}

// record folds campaign i's outcome into p. Caller holds the phase lock.
func (c *campaignHTTP) record(p *phase, i int, o opResult) {
	p.units++
	p.ops++
	p.http = append(p.http, o.http...)
	if o.err != nil {
		p.fail(1, o.err)
		return
	}
	p.lat = append(p.lat, float64(o.lat)/1e6)
	p.evals += len(o.log.Results)
	p.counts.addLog(o.log)
	p.counts.trainings += o.log.Evaluations
	p.counts.allocations += o.allocations
	p.counts.logBytes += int64(o.logBytes)
	p.counts.logFetches++
	countEvents(&p.counts, o.events, o.dropped)
	d, err := logDigest(o.log)
	if err == nil {
		p.setDigest(i, d)
		if err = checkLog(o.log, true); err == nil {
			err = checkPin(c.pins, c.w.name, c.seed, i, d)
		}
	}
	if err != nil {
		p.fail(1, err)
	}
}

func (c *campaignHTTP) target() probeTarget {
	// spec.Build generates campaign 0's data and space exactly as its
	// runner does; the spec validated at submit, so it cannot fail here.
	spec := c.spec(0)
	bench, sp, err := spec.Build()
	if err != nil {
		panic(err)
	}
	return probeTarget{bench: bench, sp: sp, shape: c.w.shape, seed: c.seed, setup: c.data,
		trainEval: c.w.shape.trainConfig(c.seed)}
}

// lanes is the client count: each campaign trains on its own pool, and
// the clients keep that many campaigns running.
func (c *campaignHTTP) lanes() int { return c.clients }

func (c *campaignHTTP) close() error { return c.srv.stop() }
