package main

// audit is a closed loop of clients against an in-process
// auditd.Server over loopback HTTP: each client POSTs a job, polls it
// until it is done, checks the reports and only then sends its next
// request. It is the only workload that exercises the daemon, HTTP/JSON
// and the staticlint.Cache, and it builds no core.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deaduops/internal/auditd"
	"deaduops/internal/profile"
	"deaduops/internal/staticlint"
)

// The request stream of one round. Every round runs its own stream
// against a fresh server, so each round pays its cold analyses and the
// mix below holds exactly.
//
// A round has three stages, each a closed loop that ends before the next
// starts. The first issues one corpus job per profile (every checker,
// randomBase generated programs): cold analysis. The second issues, in
// seed-shuffled order, one job per fixture golden in cmd/uoplint/testdata,
// one seed-drawn checker subset per profile (report misses over cached
// function summaries) and one raised random count per profile (cold
// analysis of randomStep new programs beside cached ones). The third
// repeats every one of those requests warmPasses times: warm report-cache
// hits. Each request is thus issued cold and then warm, like the CI
// audit-service job's cold/warm pair, with the warm issuance doubled so
// that warm jobs are two thirds of the round: p50 falls among them and
// times the service path, while p95 falls among the ten corpus-sized
// cold jobs and times the analysis. With five profiles and ten goldens a
// round is 25 first issuances and 50 repeats, and its report keys, at
// most 15 (profile, checker set) pairs × (11 corpus + 16 random
// programs) plus the fixtures, stay far below the cache's default bound
// of 4096 reports.
const (
	warmPasses = 2
	randomBase = 8
	randomStep = 8
	// pollInterval is how long a client waits between status polls.
	pollInterval = time.Millisecond
)

type request struct {
	req  auditd.JobRequest
	kind string // cold, subset, fixture or repeat
	key  string // the request's JSON: equal requests must get equal reports
	// golden is the uoplint -json output a fixture job must match.
	golden []byte
}

type auditW struct {
	par     int
	seed    uint64
	goldens []golden
	stages  [][]request // the current round's stream, stage by stage
	used    bool        // a round has run on the current daemon
	client  *http.Client
	srv     *http.Server
	served  chan error
	base    string
	cur     atomic.Pointer[auditd.Server]

	mu    sync.Mutex
	first map[string][32]byte // request key → digest of its first reports
}

func setupAudit(o *options) (workload, error) {
	goldens, err := fixtureGoldens(filepath.Join(o.root, "cmd", "uoplint", "testdata"))
	if err != nil {
		return nil, err
	}
	a := &auditW{par: o.par, seed: o.seed, goldens: goldens, first: map[string][32]byte{}}
	a.stages = genStream(a.streamSeed(0), goldens)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	a.base = "http://" + ln.Addr().String()
	a.srv = &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { a.cur.Load().ServeHTTP(w, r) }),
		ReadHeaderTimeout: 10 * time.Second,
	}
	a.served = make(chan error, 1)
	go func() { a.served <- a.srv.Serve(ln) }()
	a.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     o.par,
			MaxIdleConnsPerHost: o.par,
			DisableCompression:  true,
		},
	}
	if err := a.newServer(); err != nil {
		a.close()
		return nil, err
	}
	return a, nil
}

// newServer swaps in a fresh daemon with an empty cache and returns
// after the previous one has drained.
func (a *auditW) newServer() error {
	// par jobs run at once, each linting on one goroutine. MaxJobs is
	// uoplintd's default retention.
	s, err := auditd.New(auditd.Config{Workers: a.par, QueueCap: a.par, JobWorkers: 1, MaxJobs: 1024})
	if err != nil {
		return err
	}
	if old := a.cur.Swap(s); old != nil {
		old.Close()
	}
	return nil
}

type golden struct {
	fixture, profile string
	data             []byte
}

// fixtureGoldens reads cmd/uoplint/testdata: <fixture>.json was written
// under the default profile, <fixture>.<profile>.json under another.
func fixtureGoldens(dir string) ([]golden, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no fixture goldens in %s: %v", dir, err)
	}
	var out []golden
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		fx, prof, ok := strings.Cut(name, ".")
		if !ok {
			prof = profile.Default().Name
		}
		out = append(out, golden{fx, prof, data})
	}
	return out, nil
}

// genStream generates one round's stages from the seed.
func genStream(seed uint64, goldens []golden) [][]request {
	rng := seed
	next := func(n int) int { rng = mix(rng); return int(rng % uint64(n)) }
	shuffle := func(rs []request) {
		for i := len(rs) - 1; i > 0; i-- {
			j := next(i + 1)
			rs[i], rs[j] = rs[j], rs[i]
		}
	}
	emit := func(kind string, req auditd.JobRequest, g []byte) request {
		key, _ := json.Marshal(req)
		return request{req: req, kind: kind, key: string(key), golden: g}
	}

	checkers := staticlint.AllCheckers()
	var cold, second []request
	for _, p := range profile.Names() {
		cold = append(cold, emit("cold", auditd.JobRequest{Profile: p, Random: randomBase}, nil))
		// A non-empty proper subset: the full set is the cold job's key.
		mask := 1 + next(1<<len(checkers)-2)
		var names []string
		for i, c := range checkers {
			if mask&(1<<i) != 0 {
				names = append(names, c.Name())
			}
		}
		second = append(second,
			emit("subset", auditd.JobRequest{Profile: p, Random: randomBase, Checkers: names}, nil),
			emit("cold", auditd.JobRequest{Profile: p, Random: randomBase + randomStep}, nil))
	}
	for _, g := range goldens {
		second = append(second, emit("fixture", auditd.JobRequest{Fixture: g.fixture, Profile: g.profile}, g.data))
	}
	shuffle(cold)
	shuffle(second)

	var warm []request
	for k := 0; k < warmPasses; k++ {
		pass := append(append([]request(nil), cold...), second...)
		shuffle(pass)
		for _, r := range pass {
			r.kind = "repeat"
			warm = append(warm, r)
		}
	}
	return [][]request{cold, second, warm}
}

// streamSeed gives every round its own stream, so that a run averages
// over many streams rather than timing one seed's stream repeatedly.
func (a *auditW) streamSeed(r int) uint64 { return mix(a.seed ^ mix(uint64(r))) }

// round runs round r of a phase. Set-up built the first round's daemon
// and stream; every later round of the run, including the first round
// of a traced phase, gets a fresh daemon and round r's stream, so both
// phases see the same streams against the same cold caches.
func (a *auditW) round(b *bench, r int) time.Duration {
	if a.used {
		a.stages = genStream(a.streamSeed(r), a.goldens)
		if err := a.newServer(); err != nil {
			b.oracle(fmt.Errorf("building the daemon: %w", err))
			return 0
		}
	}
	a.used = true
	start := time.Now()
	for _, reqs := range a.stages {
		a.loop(b, reqs)
	}
	elapsed := time.Since(start)

	var st auditd.Stats
	if err := a.get("/v1/stats", &st); err != nil {
		b.oracle(fmt.Errorf("reading /v1/stats: %w", err))
		return elapsed
	}
	b.add("func_hits", float64(st.Cache.FuncHits))
	b.add("func_misses", float64(st.Cache.FuncMisses))
	b.add("report_hits", float64(st.Cache.ReportHits))
	b.add("report_misses", float64(st.Cache.ReportMisses))
	b.add("rounds", 1)
	var err error
	if st.Jobs.Rejected != 0 || st.Jobs.Failed != 0 {
		err = fmt.Errorf("daemon rejected %d and failed %d jobs", st.Jobs.Rejected, st.Jobs.Failed)
	}
	b.oracle(err)
	return elapsed
}

// loop runs reqs through a closed loop of a.par clients: each takes the
// next request only after its previous job is done.
func (a *auditW) loop(b *bench, reqs []request) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < a.par; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				lat, err := a.job(b, reqs[i])
				b.op(lat, err)
			}
		}()
	}
	wg.Wait()
}

func (a *auditW) get(path string, v any) error {
	resp, err := a.client.Get(a.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

type jobView struct {
	Status  string            `json:"status"`
	Error   string            `json:"error"`
	Reports []json.RawMessage `json:"reports"`
}

// job submits one request and polls it until the daemon reports it
// finished. The latency runs from the submit to the client seeing done.
func (a *auditW) job(b *bench, rq request) (time.Duration, error) {
	root := b.tr.begin("audit.job", -1)
	defer b.tr.end(root)
	start := time.Now()

	sp := b.tr.begin("auditd.submit", root)
	body, _ := json.Marshal(rq.req)
	resp, err := a.client.Post(a.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	var sub struct{ ID string }
	if err == nil {
		err = decodeStatus(resp, http.StatusAccepted, &sub)
	}
	b.tr.end(sp)
	if err != nil {
		return time.Since(start), fmt.Errorf("submitting %s: %w", rq.key, err)
	}

	var job jobView
	for {
		time.Sleep(pollInterval)
		sp := b.tr.begin("auditd.poll", root)
		err := a.get("/v1/jobs/"+sub.ID, &job)
		if err != nil || job.Status == "done" || job.Status == "failed" {
			b.tr.endAs(sp, "auditd.fetch")
			if err != nil {
				return time.Since(start), fmt.Errorf("fetching %s: %w", sub.ID, err)
			}
			break
		}
		b.tr.end(sp)
	}
	lat := time.Since(start)
	return lat, a.check(rq, job)
}

func decodeStatus(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// check holds a finished job to its oracles: it is done, a fixture job
// reproduces uoplint's golden byte for byte, and a repeated request
// gets exactly the reports of its first issuance.
func (a *auditW) check(rq request, job jobView) error {
	if job.Status != "done" {
		return fmt.Errorf("job %s ended %s: %s", rq.key, job.Status, job.Error)
	}
	var all bytes.Buffer
	for _, r := range job.Reports {
		if err := json.Compact(&all, r); err != nil {
			return err
		}
		all.WriteByte('\n')
	}
	if rq.golden != nil {
		if len(job.Reports) != 1 {
			return fmt.Errorf("fixture job %s returned %d reports", rq.key, len(job.Reports))
		}
		var got bytes.Buffer
		if err := json.Indent(&got, bytes.TrimSpace(all.Bytes()), "", "  "); err != nil {
			return err
		}
		got.WriteByte('\n')
		if !bytes.Equal(got.Bytes(), rq.golden) {
			return fmt.Errorf("fixture job %s differs from its uoplint golden", rq.key)
		}
	}
	sum := sha256.Sum256(all.Bytes())
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.first[rq.key]; !ok {
		a.first[rq.key] = sum
	} else if prev != sum {
		return fmt.Errorf("repeated request %s returned different reports", rq.key)
	}
	return nil
}

func (a *auditW) finish(b *bench) {}

func (a *auditW) layers(b *bench, m map[string]float64) {
	self, n := b.tr.selfTimes()
	jobs := float64(len(b.ops))
	m["auditd.submit_ms"] = 1e3 * self["auditd.submit"] / jobs
	m["auditd.fetch_ms"] = 1e3 * self["auditd.fetch"] / jobs
	m["auditd.polls_per_job"] = float64(n["auditd.poll"]+n["auditd.fetch"]) / jobs
	m["staticlint.func_hit_frac"] = hitFrac(b, "func")
	m["staticlint.report_hit_frac"] = hitFrac(b, "report")
	if r := b.counts["rounds"]; r > 0 {
		m["staticlint.func_misses"] = b.counts["func_misses"] / r
	}
}

// hitFrac is the phase's share of hits among the lookups of one cache
// layer, "func" or "report", summed over its rounds' /v1/stats.
func hitFrac(b *bench, layer string) float64 {
	hit, miss := b.counts[layer+"_hits"], b.counts[layer+"_misses"]
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}

func (a *auditW) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := a.srv.Shutdown(ctx)
	if serr := <-a.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stopping the HTTP server:", err)
	}
	a.client.CloseIdleConnections()
	if s := a.cur.Load(); s != nil {
		s.Close()
	}
}
