package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scalesim"
	"scalesim/internal/server"
)

const (
	// serveJobs is the job count of one pass: enough that every pass
	// yields at least ten samples beyond its p99.
	serveJobs = 1000
	// serveClients is the number of closed-loop clients.
	serveClients = 2
)

var (
	serveModels    = []string{"alexnet", "resnet18", "resnet50", "vit_small"}
	serveArrays    = []int{16, 32, 64, 128}
	serveDataflows = []scalesim.Dataflow{scalesim.OutputStationary, scalesim.WeightStationary, scalesim.InputStationary}
)

// serveSpec is one entry of the 48-spec job pool.
type serveSpec struct {
	name string
	cfg  scalesim.Config
	topo *scalesim.Topology
	body []byte // POST /v1/runs request
}

// serveMix is the served job mix: a fresh in-process server per pass,
// driven over a loopback listener by closed-loop clients.
type serveMix struct {
	seed int64
	pool []serveSpec

	// first holds the first payload seen per spec, across passes;
	// direct holds the payload rendered from a direct library Run.
	first, direct map[int][]byte
	// lastSeq is the most recent pass's job sequence.
	lastSeq []int
}

func (*serveMix) seeded() bool { return true }

// setup builds the spec pool and request bodies and starts a server; the
// teardown stops it. Each pass starts its own server the same way.
func (w *serveMix) setup(seed int64) (func(), error) {
	w.seed = seed
	w.pool = w.pool[:0]
	for _, model := range serveModels {
		topo, err := scalesim.BuiltinTopology(model)
		if err != nil {
			return nil, err
		}
		for _, a := range serveArrays {
			for _, df := range serveDataflows {
				cfg := scalesim.DefaultConfig()
				cfg.ArrayRows, cfg.ArrayCols = a, a
				cfg.Dataflow = df
				cfg.Memory.Enabled = true
				cfg.Energy.Enabled = true
				rawCfg, err := json.Marshal(server.ConfigToDTO(cfg))
				if err != nil {
					return nil, err
				}
				body, err := json.Marshal(server.RunRequest{
					Config:   rawCfg,
					Topology: server.TopologyDTO{Builtin: model},
					Fidelity: "analytical",
				})
				if err != nil {
					return nil, err
				}
				w.pool = append(w.pool, serveSpec{
					name: fmt.Sprintf("%s/%dx%d/%s", model, a, a, df), cfg: cfg, topo: topo, body: body})
			}
		}
	}
	if w.first == nil {
		w.first, w.direct = map[int][]byte{}, map[int][]byte{}
	}
	_, stop, err := startServer()
	if err != nil {
		return nil, err
	}
	return stop, nil
}

// sequence draws pass n's job specs from the seed. Passes of one run draw
// different sequences; the same (seed, n) always draws the same one.
func (w *serveMix) sequence(n int) []int {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(n)))
	seq := make([]int, serveJobs)
	for i := range seq {
		seq[i] = rng.Intn(len(w.pool))
	}
	return seq
}

// startServer starts a server with two shards and an empty memory-only
// cache on a loopback listener. stop shuts it down and waits for its
// goroutines.
func startServer() (base string, stop func(), err error) {
	srv := server.New(server.Options{Shards: 2, Cache: scalesim.NewCache(0, 0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // no job was accepted
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	stop = func() {
		_ = hs.Close() // every request has completed; nothing to lose
		<-served
		_ = srv.Drain(context.Background())
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// jobRecord is one job's round trip as the client saw it.
type jobRecord struct {
	spec                 int
	total, accept, fetch time.Duration
	queueWait, run       time.Duration
	hits, misses         int64
	payload              []byte
	rejected             bool
	err                  error
}

func (w *serveMix) pass(ctx context.Context, n int, tr *trace) (*passResult, error) {
	seq := w.sequence(n)
	base, stop, err := startServer()
	if err != nil {
		return &passResult{attempted: len(seq), failed: len(seq)}, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}
	client := &http.Client{Transport: transport}
	jobs := make([]jobRecord, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				jobs[i] = roundTrip(ctx, client, base, seq[i], w.pool[seq[i]].body, tr, track)
			}
		}(1001 + c)
	}
	wg.Wait()
	wall := time.Since(t0)
	transport.CloseIdleConnections()
	stop()

	p := &passResult{wall: wall, attempted: len(seq), detail: jobs}
	h := sha256.New()
	var accept, wait, run, fetch []float64
	allHit, rejected := 0, 0
	var firstErr error
	for i := range jobs {
		j := &jobs[i]
		if j.err != nil {
			p.failed++
			if j.rejected {
				rejected++
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("job %d (%s): %w", i, w.pool[j.spec].name, j.err)
			}
			continue
		}
		p.jobs = append(p.jobs, j.total)
		sum := sha256.Sum256(j.payload)
		h.Write(sum[:])
		accept = append(accept, ms(j.accept))
		wait = append(wait, ms(j.queueWait))
		run = append(run, ms(j.run))
		fetch = append(fetch, ms(j.fetch))
		if j.misses == 0 {
			allHit++
		}
		tr.addCache(j.hits, j.misses)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	w.lastSeq = seq
	if tr != nil {
		tr.server = serverTotals{
			acceptMS: median(accept), queueWaitMS: median(wait), runMS: median(run), fetchMS: median(fetch),
			rejected: rejected, allHitShare: float64(allHit) / float64(len(jobs)),
		}
	}
	var rt []float64
	for _, d := range p.jobs {
		rt = append(rt, ms(d))
	}
	tail, _ := tailLatency(rt)
	logf("pass %d: %d jobs in %.3fs, p50 %.3f ms, p99 %.3f ms, %.1f%% all-hit",
		n, len(jobs), wall.Seconds(), median(rt), tail, 100*float64(allHit)/float64(len(jobs)))
	return p, firstErr
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundTrip submits one job, waits for its terminal state on the job's
// events stream and fetches its reports.
func roundTrip(ctx context.Context, client *http.Client, base string, spec int, body []byte, tr *trace, track int) jobRecord {
	rec := jobRecord{spec: spec}
	sp := tr.span("job", "server")
	sp.SetTrack(track)
	sp.SetAttr("spec", spec)
	defer sp.End()
	t0 := time.Now()

	child := sp.Child("accept", "server")
	var job server.JobDTO
	status, err := doJSON(ctx, client, http.MethodPost, base+"/v1/runs", body, &job)
	child.End()
	rec.accept = time.Since(t0)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/runs: status %d", status)
		rec.rejected = true
	}
	if err != nil {
		rec.err = err
		return rec
	}

	child = sp.Child("wait", "server")
	done, err := awaitDone(ctx, client, base+"/v1/jobs/"+job.ID+"/events")
	child.End()
	if err == nil && done.State != "done" {
		err = fmt.Errorf("job %s ended %s: %s", job.ID, done.State, done.Error)
	}
	if err != nil {
		rec.err = err
		return rec
	}

	child = sp.Child("fetch", "server")
	t1 := time.Now()
	rec.payload, err = get(ctx, client, base+"/v1/jobs/"+job.ID+"/reports")
	rec.fetch = time.Since(t1)
	rec.total = time.Since(t0)
	child.End()
	if err != nil {
		rec.err = err
		return rec
	}
	rec.hits, rec.misses = done.CacheStats.Hits, done.CacheStats.Misses
	created, err1 := time.Parse(time.RFC3339Nano, done.Created)
	started, err2 := time.Parse(time.RFC3339Nano, done.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, done.Finished)
	if err := errors.Join(err1, err2, err3); err != nil {
		rec.err = fmt.Errorf("job %s timestamps: %w", job.ID, err)
		return rec
	}
	rec.queueWait, rec.run = started.Sub(created), finished.Sub(started)
	sp.SetAttr("cache_misses", rec.misses)
	return rec
}

// doJSON sends a request and decodes a JSON response body into out.
func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// get fetches url and returns its body; any status but 200 is an error.
func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// awaitDone follows a job's server-sent events until the terminal "done"
// event and returns the job snapshot it carries.
func awaitDone(ctx context.Context, client *http.Client, url string) (server.JobDTO, error) {
	var job server.JobDTO
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return job, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return job, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	isDone := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			isDone = true
		case isDone && strings.HasPrefix(line, "data: "):
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &job)
			// Drain the rest so the connection can be reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return job, err
		}
	}
	if err := sc.Err(); err != nil {
		return job, err
	}
	return job, fmt.Errorf("GET %s: stream ended without a done event", url)
}

// verify checks that every repeat of a spec returned the same payload
// bytes, and that the payload equals the one a direct library Run of the
// spec renders — so the served totals equal the library's.
func (w *serveMix) verify(ctx context.Context, p *passResult) error {
	jobs := p.detail.([]jobRecord)
	for i := range jobs {
		j := &jobs[i]
		if j.err != nil {
			continue // counted as failed
		}
		if prev, ok := w.first[j.spec]; ok {
			if !bytes.Equal(prev, j.payload) {
				return fmt.Errorf("job %d: payload for %s differs from an earlier repeat", i, w.pool[j.spec].name)
			}
			continue
		}
		want, err := w.directPayload(ctx, j.spec)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, j.payload) {
			return fmt.Errorf("job %d: payload for %s differs from a direct library Run", i, w.pool[j.spec].name)
		}
		w.first[j.spec] = j.payload
	}
	return nil
}

// directPayload renders spec's reports from an uncached library Run in
// the server's payload format.
func (w *serveMix) directPayload(ctx context.Context, spec int) ([]byte, error) {
	if b, ok := w.direct[spec]; ok {
		return b, nil
	}
	s := &w.pool[spec]
	res, err := scalesim.New(s.cfg).Run(ctx, s.topo, scalesim.WithParallelism(1), scalesim.WithFidelity(scalesim.Analytical))
	if err != nil {
		return nil, fmt.Errorf("direct run of %s: %w", s.name, err)
	}
	files, err := render(nil, res.Reports().All()...)
	if err != nil {
		return nil, err
	}
	dto := server.RunReportsDTO{Kind: "run"}
	for _, f := range files {
		dto.Reports = append(dto.Reports, server.ReportFileDTO{Name: f.name, Content: string(f.content)})
	}
	b, err := json.MarshalIndent(dto, "", "  ")
	if err != nil {
		return nil, err
	}
	w.direct[spec] = b
	return b, nil
}

// attribute replays the last pass's job sequence through the library with
// the pipeline stages wrapped, behind one fresh cache at parallelism 1:
// the server runs its stages inside its workers, where the benchmark
// cannot wrap them, so this replay is how the traced pass attributes the
// served jobs' simulation time to the compute, memory, energy, cache,
// run and report layers.
func (w *serveMix) attribute(ctx context.Context, tr *trace) error {
	cache := scalesim.NewCache(0, 0)
	for _, i := range w.lastSeq {
		s := &w.pool[i]
		opts := append([]scalesim.Option{scalesim.WithParallelism(1), scalesim.WithCache(cache),
			scalesim.WithFidelity(scalesim.Analytical)}, tr.runOptions(s.topo)...)
		var res *scalesim.Result
		err := timedRun(tr, "Run", func() (err error) {
			res, err = scalesim.New(s.cfg).Run(ctx, s.topo, opts...)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay of %s: %w", s.name, err)
		}
		tr.addPhases(res)
		if _, err := render(tr, res.Reports().All()...); err != nil {
			return err
		}
	}
	return nil
}

// tightness compares the Analytical and EventDriven totals of the pool's
// cheapest spec to replay (alexnet on a 128x128 input-stationary array);
// the whole pool at EventDriven would take minutes.
func (w *serveMix) tightness(ctx context.Context) (float64, error) {
	cfg := scalesim.DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 128, 128
	cfg.Dataflow = scalesim.InputStationary
	cfg.Memory.Enabled = true
	cfg.Energy.Enabled = true
	topo, err := scalesim.BuiltinTopology("alexnet")
	if err != nil {
		return 0, err
	}
	var cycles [2]int64
	for i, f := range []scalesim.Fidelity{scalesim.Analytical, scalesim.EventDriven} {
		res, err := scalesim.New(cfg).Run(ctx, topo, scalesim.WithParallelism(1), scalesim.WithFidelity(f))
		if err != nil {
			return 0, err
		}
		cycles[i] = res.TotalCycles()
	}
	return float64(cycles[0]) / float64(cycles[1]), nil
}

// stressShare reports the share of the job round trips spent outside the
// simulation itself (admission, queueing, events and fetch). It is
// informational: no floor applies.
func (*serveMix) stressShare(p *passResult, tr *trace) (float64, string, float64) {
	var total, run time.Duration
	for _, j := range p.detail.([]jobRecord) {
		total += j.total
		run += j.run
	}
	if total == 0 {
		return 0, "server", 0
	}
	return 1 - run.Seconds()/total.Seconds(), "the server outside simulation", 0
}
