package main

// The cncd-mixed workload: the scheduling daemon in process, behind its
// real HTTP handler on a loopback listener, journal on disk with fsync.
// Two closed-loop clients, one tenant each. One op is one round: a full
// plan job, then eight single-stream admissions into the plan it deployed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"etsn/internal/obs"
	"etsn/internal/service"
)

const cncdClients = 2

var raceBackends = []string{"placer", "greedy", "tabu", "anneal", "smt-incremental"}

type tenantInput struct {
	name   string
	plan   []byte
	admits []admitBody
}

// jobTimes are the samples both clients collect, by request kind.
type jobTimes struct {
	mu                        sync.Mutex
	accept, run, fetch        []float64 // all jobs
	plan, nonshare, share     []float64 // POST -> done, by kind
	nonshareIncr, shareIncr   int       // admissions that went incremental
	nonshareTotal, shareTotal int
	jobs, rejected            int
}

type cncdRunner struct {
	dir     string
	srv     *service.Server
	ts      *httptest.Server
	tenants [cncdClients]tenantInput
	times   *jobTimes
	// Registry readings at the end of set-up; layer metrics are deltas.
	base         map[string]obs.Metric
	baseJournalB int64
}

func newCncdRunner(seed int64, dir string, reg *obs.Registry) (runner, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{DataDir: dir, Obs: reg})
	if err != nil {
		return nil, err
	}
	r := &cncdRunner{dir: dir, srv: srv, ts: httptest.NewServer(service.Handler(srv)), times: &jobTimes{}}
	for i := range r.tenants {
		plan, admits := genCncd(seed, i)
		r.tenants[i] = tenantInput{name: "tenant" + strconv.Itoa(i), plan: plan, admits: admits}
		if err := r.op(&opCtx{client: i}); err != nil { // warm-up round
			r.close()
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
	}
	r.times = &jobTimes{} // drop the warm-up rounds' samples
	r.base = gather(srv.Metrics())
	r.baseJournalB = dirBytes(dir)
	return r, nil
}

func (r *cncdRunner) clients() int { return cncdClients }

// check is empty: each job's status, state and version are checked inline.
func (r *cncdRunner) check(*opCtx) error { return nil }

func (r *cncdRunner) close() {
	r.ts.Close()
	r.srv.Shutdown()
	os.RemoveAll(r.dir)
}

func (r *cncdRunner) op(c *opCtx) error {
	t := &r.tenants[c.client]
	tm := r.times
	ms, _, err := r.job(c, t.name, "jobs", t.plan)
	if err != nil {
		return fmt.Errorf("plan job: %w", err)
	}
	tm.mu.Lock()
	tm.plan = append(tm.plan, ms)
	tm.mu.Unlock()
	for _, a := range t.admits {
		ms, incremental, err := r.job(c, t.name, "streams", a.body)
		if err != nil {
			return fmt.Errorf("admission (share=%v): %w", a.share, err)
		}
		// Admissions are named by what was asked for, not by the path
		// the daemon happened to take; the path is a ratio of its own.
		tm.mu.Lock()
		if a.share {
			tm.share = append(tm.share, ms)
			tm.shareTotal++
			tm.shareIncr += btoi(incremental)
		} else {
			tm.nonshare = append(tm.nonshare, ms)
			tm.nonshareTotal++
			tm.nonshareIncr += btoi(incremental)
		}
		tm.mu.Unlock()
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// job submits one job, waits for it on Job.Done, and fetches the plan it
// deployed. It returns POST -> done in milliseconds and whether the plan
// version was produced incrementally.
func (r *cncdRunner) job(c *opCtx, tenant, endpoint string, body []byte) (float64, bool, error) {
	tm := r.times
	base := r.ts.URL + "/v1/tenants/" + tenant
	t0 := time.Now()
	end := c.span("service.accept")
	resp, err := r.ts.Client().Post(base+"/"+endpoint, "application/json", bytes.NewReader(body))
	var snap service.Snapshot
	if err == nil {
		if resp.StatusCode == http.StatusAccepted {
			err = json.NewDecoder(resp.Body).Decode(&snap)
		} else {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
			err = fmt.Errorf("POST %s: status %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(msg))
			tm.mu.Lock()
			tm.rejected++
			tm.mu.Unlock()
		}
		resp.Body.Close()
	}
	end()
	if err != nil {
		return 0, false, err
	}
	accepted := time.Now()

	end = c.span("service.run")
	job, ok := r.srv.JobByID(snap.ID)
	if ok {
		<-job.Done()
		snap = job.Snapshot()
	}
	end()
	done := time.Now()
	if !ok || snap.State != service.JobDone {
		return 0, false, fmt.Errorf("job %s ended %q (%s %s)", snap.ID, snap.State, snap.Class, snap.Error)
	}

	end = c.span("service.fetch")
	resp, err = r.ts.Client().Get(base + "/plans/latest")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if version := resp.Header.Get("Etsn-Plan-Version"); err == nil &&
			(resp.StatusCode != http.StatusOK || version != strconv.Itoa(snap.Version)) {
			err = fmt.Errorf("GET plans/latest: status %d, version %q, job deployed %d", resp.StatusCode, version, snap.Version)
		}
	}
	end()
	if err != nil {
		return 0, false, err
	}
	fetched := time.Now()
	tm.mu.Lock()
	tm.jobs++
	tm.accept = append(tm.accept, float64(accepted.Sub(t0))/1e6)
	tm.run = append(tm.run, float64(done.Sub(accepted))/1e6)
	tm.fetch = append(tm.fetch, float64(fetched.Sub(done))/1e6)
	tm.mu.Unlock()

	pv, err := r.srv.Plan(tenant, snap.Version)
	if err != nil {
		return 0, false, err
	}
	return float64(done.Sub(t0)) / 1e6, pv.Incremental, nil
}

func gather(reg *obs.Registry) map[string]obs.Metric {
	out := make(map[string]obs.Metric)
	for _, m := range reg.Gather() {
		out[m.Name] = m
	}
	return out
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

func (r *cncdRunner) layers(m metrics, res *result) {
	res.spanStats(m, nil)
	all := r.times
	m["service.accept_ms_p50"] = quantile(all.accept, 0.5)
	m["service.run_ms_p50"] = quantile(all.run, 0.5)
	m["service.fetch_ms_p50"] = quantile(all.fetch, 0.5)
	m["service.job_ms_p50"] = quantile(all.plan, 0.5)
	m["service.admit_nonshare_ms_p50"] = quantile(all.nonshare, 0.5)
	m["service.admit_share_ms_p50"] = quantile(all.share, 0.5)
	m["service.jobs"] = float64(all.jobs)
	m["service.rejected"] = float64(all.rejected)
	if all.jobs > 0 {
		m["service.journal_kb_per_op"] = float64(dirBytes(r.dir)-r.baseJournalB) / 1024 / float64(all.jobs)
	}
	if all.nonshareTotal > 0 {
		m["faults.incremental_ratio.nonshare"] = float64(all.nonshareIncr) / float64(all.nonshareTotal)
	}
	if all.shareTotal > 0 {
		m["faults.incremental_ratio.share"] = float64(all.shareIncr) / float64(all.shareTotal)
	}

	// The daemon's own registry: what the backend race cost. All readings
	// are deltas over the measuring window.
	now := gather(r.srv.Metrics())
	counter := func(name string) float64 { return float64(now[name].Value - r.base[name].Value) }
	m["service.retried"] = counter("etsn_service_jobs_retried_total")
	var allNs, wonNs float64
	for _, b := range raceBackends {
		label := `{backend="` + b + `"}`
		var sumNs, count float64
		if h := now["etsn_backend_solve_latency_ns"+label].Hist; h != nil {
			sumNs, count = float64(h.Sum), float64(h.Count)
			if old := r.base["etsn_backend_solve_latency_ns"+label].Hist; old != nil {
				sumNs -= float64(old.Sum)
				count -= float64(old.Count)
			}
		}
		wins := counter("etsn_backend_wins_total" + label)
		m["core.race.wins."+b] = wins
		if count > 0 {
			m["core.backend."+b+".solve_ms_mean"] = sumNs / count / 1e6
			wonNs += wins * sumNs / count
		}
		allNs += sumNs
	}
	if allNs > 0 {
		// Losers' solve time over all solve time, taking a winner's solve
		// to cost its backend's mean.
		m["core.race.cpu_waste_ratio"] = 1 - wonNs/allNs
	}
}
