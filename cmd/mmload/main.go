// Command mmload is the fleet's tail-latency harness: it replays a
// deterministic, seeded mix of compile requests against one worker, a
// list of workers, or a dispatcher, at a target request rate, and
// reports latency percentiles per serving class plus the fleet-wide
// warm-hit ratio.
//
// The mix models the four ways production traffic exercises the
// service:
//
//	warm  — a request identity from a fixed pool, precompiled during
//	        warmup, so it is served from the artifact tier;
//	cold  — a never-before-seen identity (fresh seed each time), a full
//	        flow execution;
//	dedup — identities shared by every dedup request inside a one-second
//	        window, so concurrent copies collide with the in-flight
//	        dedup map;
//	delta — an edited pool identity resubmitted with its warmup
//	        BaselineKey, the ECO path.
//
// Pacing is open-loop: requests launch on schedule regardless of how
// slow responses are (up to -maxconc in flight), which is what makes the
// p99 honest under overload — a closed loop would slow itself down and
// hide the tail.
//
// All request content derives from -seed, so two runs replay the same
// request sequence byte for byte.
//
// Usage:
//
//	mmload -targets http://w1:8433,http://w2:8433 -rps 1000 -duration 10s \
//	       [-mix warm=0.85,cold=0.05,dedup=0.05,delta=0.05] [-pool 8] \
//	       [-scrape URLS] [-seed 1] [-json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/netlist"
	"repro/internal/service"
)

type mix struct {
	warm, cold, dedup, delta float64
}

// parseMix reads "warm=0.85,cold=0.05,dedup=0.05,delta=0.05"; the
// weights are normalised, so they need not sum to 1.
func parseMix(s string) (mix, error) {
	m := mix{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix element %q (want class=weight)", part)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		switch k {
		case "warm":
			m.warm = w
		case "cold":
			m.cold = w
		case "dedup":
			m.dedup = w
		case "delta":
			m.delta = w
		default:
			return m, fmt.Errorf("unknown mix class %q (want warm/cold/dedup/delta)", k)
		}
	}
	total := m.warm + m.cold + m.dedup + m.delta
	if total <= 0 {
		return m, fmt.Errorf("mix has no positive weight")
	}
	m.warm, m.cold, m.dedup, m.delta = m.warm/total, m.cold/total, m.dedup/total, m.delta/total
	return m, nil
}

// pick maps a uniform [0,1) draw to a class name.
func (m mix) pick(u float64) string {
	if u < m.warm {
		return "warm"
	}
	if u < m.warm+m.cold {
		return "cold"
	}
	if u < m.warm+m.cold+m.dedup {
		return "dedup"
	}
	return "delta"
}

// blifMode renders a small generated netlist as BLIF text; everything
// derives from seed, so the same seed is the same request content on
// every run (the same generator shape the service tests use).
func blifMode(seed int64, nGates int) string {
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(fmt.Sprintf("load%d", seed))
	sigs := b.InputVector("in", 4)
	for i := 0; i < nGates; i++ {
		x := sigs[rng.Intn(len(sigs))]
		y := sigs[rng.Intn(len(sigs))]
		switch rng.Intn(5) {
		case 0:
			sigs = append(sigs, b.And(x, y))
		case 1:
			sigs = append(sigs, b.Or(x, y))
		case 2:
			sigs = append(sigs, b.Xor(x, y))
		case 3:
			sigs = append(sigs, b.Not(x))
		default:
			sigs = append(sigs, b.Latch(x, false))
		}
	}
	for i := 0; i < 3; i++ {
		b.Output(fmt.Sprintf("o[%d]", i), sigs[len(sigs)-1-i])
	}
	var buf bytes.Buffer
	if err := netlist.WriteBLIF(&buf, b.N); err != nil {
		panic(err) // deterministic generator over a builder it owns
	}
	return buf.String()
}

// request builds the compile request for one identity. Distinct idSeed
// values are distinct RequestKeys (the seed knob is part of the
// identity); identical idSeed values are fleet-wide cache/dedup hits.
func request(idSeed int64, gates int, effort float64) *service.CompileRequest {
	return &service.CompileRequest{
		Modes: []service.Mode{
			{BLIF: blifMode(idSeed*2+1, gates)},
			{BLIF: blifMode(idSeed*2+2, gates)},
		},
		Effort: effort,
		Seed:   idSeed,
	}
}

// bodyCache memoises marshalled request bodies by identity. Warm, dedup
// and delta classes replay a small identity set over and over; paying
// netlist generation and JSON marshalling once per identity (instead of
// once per request) keeps the client off the CPU the servers need —
// the harness usually shares a machine with the fleet it is loading.
type bodyCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (c *bodyCache) get(key string, build func() []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.m[key]; ok {
		return b
	}
	b := build()
	c.m[key] = b
	return b
}

func marshal(req *service.CompileRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // the generator owns every field it marshals
	}
	return b
}

// sample is one completed request.
type sample struct {
	class   string
	status  int
	latency time.Duration
	err     bool
}

// recorder accumulates samples; everything else reads it only after the
// run drains.
type recorder struct {
	mu      sync.Mutex
	samples []sample
	dropped int // launch slots refused because -maxconc was exhausted
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// percentile returns the p-th percentile (0..100) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// classReport is the percentile summary for one serving class (or the
// whole run under the name "overall").
type classReport struct {
	Class    string  `json:"class"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Shed     int     `json:"shed"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

func report(class string, samples []sample) classReport {
	r := classReport{Class: class}
	var lats []time.Duration
	for _, s := range samples {
		if class != "overall" && s.class != class {
			continue
		}
		r.Requests++
		switch {
		case s.status == http.StatusServiceUnavailable:
			r.Shed++
		case s.err || s.status != http.StatusOK:
			r.Errors++
		}
		lats = append(lats, s.latency)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	r.P50Ms = ms(percentile(lats, 50))
	r.P95Ms = ms(percentile(lats, 95))
	r.P99Ms = ms(percentile(lats, 99))
	return r
}

// cacheCounters is the slice of a worker's /stats this harness reads
// (flow.Stats serialises under Go field names).
type cacheCounters struct {
	Cache struct {
		ArtifactHits   uint64
		ArtifactMisses uint64
	} `json:"cache"`
}

// scrapeArtifacts sums artifact hits/misses across the given workers'
// /stats endpoints. Endpoints that are not workers (a dispatcher, a dead
// URL) contribute zero.
func scrapeArtifacts(client *http.Client, urls []string) (hits, misses uint64) {
	for _, u := range urls {
		resp, err := client.Get(u + "/stats")
		if err != nil {
			continue
		}
		var c cacheCounters
		err = json.NewDecoder(resp.Body).Decode(&c)
		resp.Body.Close()
		if err != nil {
			continue
		}
		hits += c.Cache.ArtifactHits
		misses += c.Cache.ArtifactMisses
	}
	return hits, misses
}

func main() {
	targets := flag.String("targets", "", "comma-separated compile endpoints (workers or a dispatcher); requests round-robin over them")
	scrape := flag.String("scrape", "", "comma-separated worker /stats endpoints for the fleet warm-hit ratio (default: -targets)")
	rps := flag.Float64("rps", 200, "target request rate (open loop)")
	duration := flag.Duration("duration", 10*time.Second, "measured run length")
	seed := flag.Int64("seed", 1, "replay seed: request contents, identities and class sequence all derive from it")
	mixFlag := flag.String("mix", "warm=0.85,cold=0.05,dedup=0.05,delta=0.05", "request class weights")
	pool := flag.Int("pool", 8, "distinct warm request identities (precompiled during warmup)")
	gates := flag.Int("gates", 24, "gates per generated mode")
	effort := flag.Float64("effort", 0.1, "annealing effort for generated requests")
	maxconc := flag.Int("maxconc", 512, "maximum requests in flight; past it launches are counted as dropped, not queued")
	reqTimeout := flag.Duration("timeout", 120*time.Second, "per-request timeout")
	noWarmup := flag.Bool("nowarmup", false, "skip precompiling the warm pool (every class starts cold)")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON on stdout")
	flag.Parse()

	if *targets == "" {
		fmt.Fprintln(os.Stderr, "mmload: -targets is required")
		os.Exit(2)
	}
	endpoints := strings.Split(*targets, ",")
	scrapeURLs := endpoints
	if *scrape != "" {
		scrapeURLs = strings.Split(*scrape, ",")
	}
	m, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmload:", err)
		os.Exit(2)
	}
	client := &http.Client{
		Timeout: *reqTimeout,
		Transport: &http.Transport{
			// At rate, every launch reuses a kept-alive connection; the
			// default per-host idle cap (2) would redial almost every
			// request.
			MaxIdleConns:        *maxconc,
			MaxIdleConnsPerHost: *maxconc,
		},
	}

	// Identity seed spaces, disjoint by construction: pool identities are
	// seed*1e6+i, cold identities count up from seed*1e6+1e5, dedup
	// windows from seed*1e6+2e5. A different -seed shifts every space, so
	// runs never share artifacts unless asked to.
	base := *seed * 1_000_000
	poolSeed := func(i int) int64 { return base + int64(i) }
	coldBase := base + 100_000
	dedupBase := base + 200_000

	// Warmup: compile every pool identity once (and remember its
	// BaselineKey for the delta class), so the measured phase's "warm"
	// class actually is warm.
	baselines := make([]string, *pool)
	if !*noWarmup {
		fmt.Fprintf(os.Stderr, "mmload: warming %d pool identities\n", *pool)
		for i := 0; i < *pool; i++ {
			body, _ := json.Marshal(request(poolSeed(i), *gates, *effort))
			resp, err := client.Post(endpoints[i%len(endpoints)]+"/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmload: warmup %d: %v\n", i, err)
				os.Exit(1)
			}
			var res service.Result
			err = json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				fmt.Fprintf(os.Stderr, "mmload: warmup %d: status %d err %v\n", i, resp.StatusCode, err)
				os.Exit(1)
			}
			baselines[i] = res.BaselineKey
		}
	}

	hitsBefore, missesBefore := scrapeArtifacts(client, scrapeURLs)

	// The measured phase. One goroutine paces launches; the class
	// sequence, identities and target rotation all come from a single
	// seeded generator, so the replay is deterministic.
	rng := rand.New(rand.NewSource(*seed))
	rec := &recorder{}
	bodies := &bodyCache{m: map[string][]byte{}}
	slots := make(chan struct{}, *maxconc)
	var wg sync.WaitGroup
	start := time.Now()
	coldN := 0
	launched := 0
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for now := range ticker.C {
		elapsed := now.Sub(start)
		if elapsed >= *duration {
			break
		}
		// Open loop: launch however many requests the schedule says are
		// due by now, independent of how many are still in flight.
		due := int(elapsed.Seconds() * *rps)
		for ; launched < due; launched++ {
			class := m.pick(rng.Float64())
			var body []byte
			switch class {
			case "warm":
				i := rng.Intn(*pool)
				body = bodies.get(fmt.Sprintf("w%d", i), func() []byte {
					return marshal(request(poolSeed(i), *gates, *effort))
				})
			case "cold":
				coldN++
				body = marshal(request(coldBase+int64(coldN), *gates, *effort))
			case "dedup":
				// Every dedup request inside a one-second window shares
				// one identity: at rate, concurrent copies join the same
				// in-flight compile.
				win := int64(elapsed / time.Second)
				body = bodies.get(fmt.Sprintf("d%d", win), func() []byte {
					return marshal(request(dedupBase+win, *gates, *effort))
				})
			case "delta":
				i := rng.Intn(*pool)
				body = bodies.get(fmt.Sprintf("e%d", i), func() []byte {
					req := request(poolSeed(i), *gates+1, *effort)
					req.BaselineKey = baselines[i]
					return marshal(req)
				})
			}
			target := endpoints[launched%len(endpoints)]
			select {
			case slots <- struct{}{}:
			default:
				rec.mu.Lock()
				rec.dropped++
				rec.mu.Unlock()
				continue
			}
			wg.Add(1)
			go func(class, target string, body []byte) {
				defer wg.Done()
				defer func() { <-slots }()
				t0 := time.Now()
				resp, err := client.Post(target+"/compile", "application/json", bytes.NewReader(body))
				s := sample{class: class, latency: time.Since(t0), err: err != nil}
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					s.status = resp.StatusCode
				}
				rec.add(s)
			}(class, target, body)
		}
	}
	wg.Wait()
	wall := time.Since(start)
	hitsAfter, missesAfter := scrapeArtifacts(client, scrapeURLs)

	// Reporting.
	classes := []string{"overall", "warm", "cold", "dedup", "delta"}
	reports := map[string]classReport{}
	for _, c := range classes {
		reports[c] = report(c, rec.samples)
	}
	overall := reports["overall"]
	achieved := float64(overall.Requests) / wall.Seconds()
	errRate := 0.0
	if overall.Requests > 0 {
		errRate = float64(overall.Errors) / float64(overall.Requests)
	}
	warmHit := 0.0
	if d := (hitsAfter - hitsBefore) + (missesAfter - missesBefore); d > 0 {
		warmHit = float64(hitsAfter-hitsBefore) / float64(d)
	}

	for _, c := range classes {
		r := reports[c]
		if r.Requests == 0 && c != "overall" {
			continue
		}
		fmt.Fprintf(os.Stderr,
			"mmload: %-7s n=%-6d err=%-4d shed=%-4d p50=%.1fms p95=%.1fms p99=%.1fms\n",
			r.Class, r.Requests, r.Errors, r.Shed, r.P50Ms, r.P95Ms, r.P99Ms)
	}
	fmt.Fprintf(os.Stderr,
		"mmload: rate %.0f/s achieved (target %.0f/s), dropped %d, error rate %.4f, fleet warm-hit ratio %.3f\n",
		achieved, *rps, rec.dropped, errRate, warmHit)

	if *jsonOut {
		doc := map[string]any{
			"target_rps":           *rps,
			"achieved_rps":         achieved,
			"duration_seconds":     wall.Seconds(),
			"dropped":              rec.dropped,
			"error_rate":           errRate,
			"fleet_warm_hit_ratio": warmHit,
			"classes":              reports,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	}
	if overall.Requests == 0 {
		fmt.Fprintln(os.Stderr, "mmload: no requests completed")
		os.Exit(1)
	}
}
