package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
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

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/service"
)

// Warm-serve load: a closed loop of clients, each sending its next
// request when the previous reply has arrived, the way a build system
// calls mmserved. conns matches the server's worker count and the 2-core
// box the benchmark was tuned on.
const conns = 2

// server is one running mmserved.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan error // receives cmd.Wait's result once
}

// buildServer builds the real cmd/mmserved. The import path resolves from
// the repository's own module and from the benchmark's alike.
func buildServer(workDir string) (string, error) {
	bin := filepath.Join(workDir, "mmserved")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/mmserved")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build mmserved: %w", err)
	}
	return bin, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer runs mmserved over the artifact store in cacheDir and waits
// until it answers /healthz.
func startServer(bin, cacheDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-j", strconv.Itoa(conns), "-cachedir", cacheDir)
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, url: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		select {
		case err := <-s.done:
			s.done <- err
			s.stop()
			return nil, fmt.Errorf("mmserved exited during start-up: %v", err)
		default:
		}
		if resp, err := http.Get(s.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	s.stop()
	return nil, fmt.Errorf("mmserved did not become healthy at %s", s.url)
}

// stop shuts the server down gracefully (SIGTERM, killed after 10 s) and
// waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// procCPU is the server's user plus system CPU time, from /proc (in
// clock ticks of 1/100 s, the fixed USER_HZ of Linux).
func (s *server) procCPU() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", data)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat: %q", data)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMiB is the server's resident-set high-water mark (VmHWM). The
// measured server starts after the precompiles, so this is serving's own.
func (s *server) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// serverStats is the slice of /stats the benchmark reads.
type serverStats struct {
	Cache struct {
		ArtifactHits, ArtifactMisses uint64
		Store                        struct{ Hits, BytesRead uint64 }
	} `json:"cache"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	resp, err := http.Get(s.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// identity is one warm-serve request: its body and the canonical answer
// of its set-up compile.
type identity struct {
	name string
	body []byte
	want []byte
	res  *service.Result
}

func requestBody(g group) ([]byte, error) {
	req := service.CompileRequest{Effort: effort, Seed: flowSeed}
	for _, n := range g.Modes {
		var buf bytes.Buffer
		if err := netlist.WriteBLIF(&buf, n); err != nil {
			return nil, err
		}
		req.Modes = append(req.Modes, service.Mode{BLIF: buf.String()})
	}
	return json.Marshal(req)
}

// post sends one compile request and returns the reply body.
func post(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, out)
	}
	return out, nil
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// precompile sends every identity once, over the same number of
// connections as the measured phase, and keeps each cold answer as that
// identity's reference.
func precompile(s *server, ids []identity) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			for i := c; i < len(ids); i += conns {
				body, err := post(client, s.url, ids[i].body)
				if err == nil {
					ids[i].res = new(service.Result)
					err = json.Unmarshal(body, ids[i].res)
				}
				if err == nil {
					ids[i].want, _, err = withoutTimings(body)
				}
				if err != nil {
					errs[c] = fmt.Errorf("%s: %w", ids[i].name, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// request is one measured warm-serve request.
type request struct {
	id            int           // index of the identity
	latency, load time.Duration // client-observed; server-reported artifact load
	err           error
}

// serveLoad runs the closed loop for d: client c, on its own kept-alive
// connection, sends identities order[next[c]], order[next[c]+conns], ...
// round-robin, checking every answer, and leaves next[c] where the
// following segment resumes.
func serveLoad(s *server, ids []identity, order, next []int, clients []*http.Client, d time.Duration, traces []*obs.Trace) [][]request {
	out := make([][]request, conns)
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := clients[c]
			tr := traces[c]
			for ; time.Now().Before(end); next[c] += conns {
				i := order[next[c]%len(order)]
				id := &ids[i]
				sp := tr.Start("http", "identity", id.name)
				t0 := time.Now()
				body, err := post(client, s.url, id.body)
				r := request{id: i, latency: time.Since(t0)}
				sp.End()
				vs := tr.Start("verify")
				if err == nil {
					r.load, err = checkWarm(id, body)
				}
				vs.End()
				r.err = err
				out[c] = append(out[c], r)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// checkWarm compares a warm answer with its identity's cold answer and
// returns the server-reported artifact-load time.
func checkWarm(id *identity, body []byte) (time.Duration, error) {
	got, timings, err := withoutTimings(body)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, id.want) {
		return 0, fmt.Errorf("%s: warm answer differs from its cold compile", id.name)
	}
	var stages []obs.StageTiming
	if err := json.Unmarshal(timings, &stages); err != nil {
		return 0, fmt.Errorf("%s: timings: %w", id.name, err)
	}
	for _, st := range stages {
		if st.Stage == "artifact-load" {
			return time.Duration(st.Millis * float64(time.Millisecond)), nil
		}
	}
	return 0, fmt.Errorf("%s: answer was not served from the artifact store", id.name)
}

// runWarm is the warm-serve workload.
func runWarm(o options, rec *record) error {
	bin, err := buildServer(o.workDir)
	if err != nil {
		return err
	}
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var ids []identity
	var cacheDir string
	err = timeSetup(o, rec, func() error {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		if cacheDir != "" {
			if err := os.RemoveAll(cacheDir); err != nil {
				return err
			}
		}
		groups, err := serveGroups(o.size)
		if err != nil {
			return err
		}
		ids = make([]identity, len(groups))
		for i, g := range groups {
			ids[i].name = g.Name
			if ids[i].body, err = requestBody(g); err != nil {
				return err
			}
		}
		if cacheDir, err = os.MkdirTemp(o.workDir, "mmserved-cache-"); err != nil {
			return err
		}
		if srv, err = startServer(bin, cacheDir); err != nil {
			return err
		}
		if err := precompile(srv, ids); err != nil {
			return err
		}
		// Serve from a new process over the warm store, so that the
		// measured phase's peak RSS and CPU time are serving's alone and
		// not the precompiles'.
		srv.stop()
		srv, err = startServer(bin, cacheDir)
		return err
	})
	if err != nil {
		return err
	}
	for _, id := range ids {
		fmt.Fprintf(os.Stderr, "mmperf: warm-serve identity %-20s request %6d B, answer %6d B\n", id.name, len(id.body), len(id.want))
	}
	order := rand.New(rand.NewSource(o.seed)).Perm(len(ids))
	d := time.Duration(o.seconds * float64(time.Second))
	m, err := measureServe(srv, ids, order, d, nil, o.speed, rec)
	if err != nil {
		return err
	}
	results := make([]*service.Result, len(ids))
	for i := range ids {
		results[i] = ids[i].res
	}
	if !o.trace {
		rec.Samples = len(m.lat)
		rec.set("latency_ms", inputLatency(m.byID))
		rec.set("latency_p90_ms", p90(m.lat))
		rec.set("throughput_per_s", float64(len(m.lat))/m.wall.Seconds())
		rec.set("cpu_ms_per_op", m.serverCPUMs/float64(len(m.lat)))
		rec.set("peak_rss_mb", m.serverRSS)
		setQoR(rec, results)
		return nil
	}
	traces := make([]*obs.Trace, conns)
	for c := range traces {
		traces[c] = obs.NewTrace()
	}
	t, err := measureServe(srv, ids, order, d, traces, o.speed, rec)
	if err != nil {
		return err
	}
	evs, err := exportChrome(o.tr, 0)
	if err != nil {
		return err
	}
	for c, tr := range traces {
		ce, err := exportChrome(tr, c+1)
		if err != nil {
			return err
		}
		evs = append(evs, ce...)
	}
	if err := saveTrace(o, rec, evs); err != nil {
		return err
	}
	for _, d := range perLayer {
		rec.set(d.Name, 0)
	}
	n := float64(len(t.lat))
	rec.Samples = len(t.lat)
	rec.set("artifact_load.self_ms", t.loadMs/n)
	rec.set("store.hits", t.storeHits/n)
	rec.set("store.bytes_read", t.bytesRead/n)
	rec.set("server.cpu_ms_per_req", t.serverCPUMs/n)
	rec.set("server.other_ms_p50", median(t.other))
	rec.set("server.artifact_hit_ratio", t.hitRatio)
	rec.set("client.cpu_ms_per_req", t.clientCPUMs/n)
	rec.set("verify.self_ms", layerTimesOf(evs).verifyMs/n)
	rec.set("trace_overhead_x", mean(t.lat)/mean(m.lat))
	return nil
}

// serveMeasure is what one measured warm-serve phase observed.
type serveMeasure struct {
	lat, other             []float64         // per request: latency, latency minus artifact load (ms)
	byID                   map[int][]float64 // latencies by identity
	wall                   time.Duration
	loadMs, serverCPUMs    float64
	clientCPUMs, serverRSS float64
	storeHits, bytesRead   float64
	hitRatio               float64
}

// measureServe runs the closed loop for d in segments of about two
// seconds and times the calibration kernel in the pause before each, so
// that the run's speed is sampled across its whole window; the server
// idles in the pauses.
func measureServe(s *server, ids []identity, order []int, d time.Duration, traces []*obs.Trace, speed *speedometer, rec *record) (serveMeasure, error) {
	m := serveMeasure{byID: map[int][]float64{}}
	if traces == nil {
		traces = make([]*obs.Trace, conns)
	}
	st0, err := s.stats()
	if err != nil {
		return m, err
	}
	cpu0, err := s.procCPU()
	if err != nil {
		return m, err
	}
	next := make([]int, conns)
	clients := make([]*http.Client, conns)
	for c := range clients {
		next[c] = c
		clients[c] = newClient()
		defer clients[c].CloseIdleConnections()
	}
	segs := max(1, int(d.Seconds()/2+0.5))
	var reqs [][]request
	for i := 0; i < segs; i++ {
		speed.sample()
		client0, t0 := cpuTime(), time.Now()
		reqs = append(reqs, serveLoad(s, ids, order, next, clients, d/time.Duration(segs), traces)...)
		m.wall += time.Since(t0)
		m.clientCPUMs += ms(cpuTime() - client0)
	}
	cpu1, err := s.procCPU()
	if err != nil {
		return m, err
	}
	m.serverCPUMs = ms(cpu1 - cpu0)
	st1, err := s.stats()
	if err != nil {
		return m, err
	}
	if m.serverRSS, err = s.peakRSSMiB(); err != nil {
		return m, err
	}
	for _, rs := range reqs {
		for _, r := range rs {
			rec.Attempted++
			if r.err != nil {
				rec.fail("%v", r.err)
				continue
			}
			m.lat = append(m.lat, ms(r.latency))
			m.byID[r.id] = append(m.byID[r.id], ms(r.latency))
			m.other = append(m.other, ms(r.latency-r.load))
			m.loadMs += ms(r.load)
		}
	}
	if len(m.lat) == 0 {
		return m, fmt.Errorf("no request succeeded")
	}
	c0, c1 := st0.Cache, st1.Cache
	m.storeHits = float64(c1.Store.Hits - c0.Store.Hits)
	m.bytesRead = float64(c1.Store.BytesRead - c0.Store.BytesRead)
	if lookups := (c1.ArtifactHits - c0.ArtifactHits) + (c1.ArtifactMisses - c0.ArtifactMisses); lookups > 0 {
		m.hitRatio = float64(c1.ArtifactHits-c0.ArtifactHits) / float64(lookups)
	}
	return m, nil
}

func mean(values []float64) float64 {
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
