// daemongate is the check.sh end-to-end gate for etsn-cncd. It exercises
// the daemon the way an operator would — over HTTP against a real process —
// and asserts the three robustness contracts:
//
//  1. Service: the paper-testbed scenario submits, solves, and yields a
//     feasible versioned plan, with /metrics populated — and showing that
//     only the backend that won the plan job ran.
//  2. Overload: a 4-tenant submission burst is absorbed per policy — every
//     response is 202 or 429 (+Retry-After), degradation sheds only the
//     doomed TCT stream, and no admitted ECT stream is ever dropped.
//  3. Crash: SIGKILL mid-solve, restart on the same data directory, and the
//     journal replay resumes the interrupted job to completion.
//
// Usage: daemongate -bin ./etsn-cncd -config scenario.json -data DIR
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

var client = &http.Client{Timeout: 10 * time.Second}

func main() {
	bin := flag.String("bin", "", "path to the etsn-cncd binary")
	config := flag.String("config", "", "path to the scenario configuration (qcc JSON)")
	data := flag.String("data", "", "daemon data directory (journal lives here)")
	flag.Parse()
	if *bin == "" || *config == "" || *data == "" {
		fmt.Fprintln(os.Stderr, "daemongate: -bin, -config, and -data are required")
		os.Exit(2)
	}
	if err := runGate(*bin, *config, *data); err != nil {
		fmt.Fprintln(os.Stderr, "daemongate: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("daemongate: OK")
}

func runGate(bin, configPath, dataDir string) error {
	scenario, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}

	// Tight limits make the overload phase deterministic: one worker, a
	// two-deep queue, one job in flight per tenant, and an injected 300ms
	// solve delay so bursts pile up (and SIGKILL lands mid-solve).
	args := []string{"-data", dataDir, "-listen", "127.0.0.1:0",
		"-workers", "1", "-queue", "2", "-tenant-quota", "1",
		"-solve-delay", "300ms", "-drain-timeout", "2s"}

	daemon, base, err := startDaemon(bin, args)
	if err != nil {
		return err
	}
	defer func() {
		if daemon.Process != nil {
			_ = daemon.Process.Kill()
			_, _ = daemon.Process.Wait()
		}
	}()

	// ---- Phase 1: the paper-testbed scenario produces a feasible plan.
	fmt.Println("daemongate: phase 1: scenario plan")
	snap, err := submitAndWait(base, "line1", "jobs", scenario)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if snap.State != "done" || snap.Version != 1 {
		return fmt.Errorf("scenario job: %+v", snap)
	}
	if len(snap.ShedTCT) != 0 || len(snap.ShedBE) != 0 {
		return fmt.Errorf("feasible scenario shed %v/%v", snap.ShedTCT, snap.ShedBE)
	}
	export, err := get(base + "/v1/tenants/line1/plans/latest")
	if err != nil {
		return err
	}
	if !strings.Contains(string(export), "gcls") {
		return fmt.Errorf("plan export has no gate programs: %.200s", export)
	}
	// The paper scenario's ECT stream (s2) must hold reservations.
	if !strings.Contains(string(export), "s2/") {
		return fmt.Errorf("plan export lost the ECT reservations")
	}
	metrics, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{"etsn_service_jobs_accepted_total", "etsn_service_jobs_done_total", "etsn_service_queue_depth"} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("/metrics missing %s", want)
		}
	}

	// One plan job has run, under the daemon's default backend. The cascade
	// stops at its winner, so that backend — and no other — has solved.
	winners := backendLabels(string(metrics), "etsn_backend_wins_total")
	if len(winners) != 1 {
		return fmt.Errorf("/metrics after one plan job names winners %v, want exactly one", winners)
	}
	for _, b := range backendLabels(string(metrics), "etsn_backend_solves_total") {
		if b != winners[0] {
			return fmt.Errorf("backend %s ran although %s won the plan job: losers must not run", b, winners[0])
		}
	}

	// ---- Phase 2: 4-tenant overload burst.
	fmt.Println("daemongate: phase 2: overload burst")
	// Each burst config carries a doomed non-sharing TCT stream with an
	// impossible deadline: the degradation ladder must shed exactly it and
	// keep the ECT stream.
	doomed := strings.Replace(string(scenario), `"streams": [`, `"streams": [
    {"id": "doomed", "talker": "D3", "listener": "D1", "type": "time-triggered",
     "period_us": 620, "max_latency_us": 2, "payload_bytes": 500},`, 1)
	accepted := make(map[string]string) // job id -> tenant
	var rejected int
	for round := 0; round < 3; round++ {
		for tn := 1; tn <= 4; tn++ {
			tenant := fmt.Sprintf("burst%d", tn)
			resp, body, err := post(base+"/v1/tenants/"+tenant+"/jobs", []byte(doomed))
			if err != nil {
				return fmt.Errorf("burst submit: %w", err)
			}
			switch resp.StatusCode {
			case http.StatusAccepted:
				var s snapshot
				if err := json.Unmarshal(body, &s); err != nil {
					return fmt.Errorf("burst snapshot: %w", err)
				}
				accepted[s.ID] = tenant
			case http.StatusTooManyRequests:
				rejected++
				if resp.Header.Get("Retry-After") == "" {
					return fmt.Errorf("429 without Retry-After")
				}
			default:
				return fmt.Errorf("burst response %d: %.200s", resp.StatusCode, body)
			}
		}
	}
	if len(accepted) == 0 {
		return fmt.Errorf("overload burst: nothing accepted")
	}
	if rejected == 0 {
		return fmt.Errorf("overload burst: nothing rejected (12 submissions, queue 2, quota 1)")
	}
	fmt.Printf("daemongate: burst: %d accepted, %d rejected\n", len(accepted), rejected)
	for id, tenant := range accepted {
		s, err := waitJob(base, id)
		if err != nil {
			return fmt.Errorf("burst job %s: %w", id, err)
		}
		if s.State != "done" {
			return fmt.Errorf("burst job %s: %+v", id, s)
		}
		// The ladder shed the doomed TCT stream and nothing else; the
		// admitted ECT stream is never dropped.
		if len(s.ShedTCT) != 1 || s.ShedTCT[0] != "doomed" {
			return fmt.Errorf("burst job %s shed %v, want [doomed]", id, s.ShedTCT)
		}
		exp, err := get(base + "/v1/tenants/" + tenant + "/plans/latest")
		if err != nil {
			return err
		}
		if !strings.Contains(string(exp), "s2/") {
			return fmt.Errorf("tenant %s lost its ECT stream under overload", tenant)
		}
	}

	// ---- Phase 3: SIGKILL mid-solve, restart, journal recovery.
	fmt.Println("daemongate: phase 3: crash recovery")
	resp, body, err := post(base+"/v1/tenants/crash/jobs", scenario)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("crash submit: %d %v", resp.StatusCode, err)
	}
	var crashJob snapshot
	if err := json.Unmarshal(body, &crashJob); err != nil {
		return err
	}
	// Wait until the worker has the job (the 300ms solve delay keeps it
	// mid-flight), then SIGKILL — no drain, no journal close.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := getJob(base, crashJob.ID)
		if err != nil {
			return err
		}
		if s.State == "running" {
			break
		}
		if s.State == "done" || s.State == "failed" {
			return fmt.Errorf("crash job finished before the kill: %+v", s)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("crash job never started: %+v", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := daemon.Process.Kill(); err != nil {
		return err
	}
	_, _ = daemon.Process.Wait()

	// Restart without the solve delay; replay must resume the job.
	daemon2, base2, err := startDaemon(bin, []string{
		"-data", dataDir, "-listen", "127.0.0.1:0", "-drain-timeout", "5s"})
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer func() {
		if daemon2.Process != nil {
			_ = daemon2.Process.Kill()
			_, _ = daemon2.Process.Wait()
		}
	}()
	s, err := waitJob(base2, crashJob.ID)
	if err != nil {
		return fmt.Errorf("recovered job: %w", err)
	}
	if s.State != "done" || !s.Recovered {
		return fmt.Errorf("job after crash: %+v (want done, recovered)", s)
	}
	if _, err := get(base2 + "/v1/tenants/crash/plans/latest"); err != nil {
		return fmt.Errorf("crash tenant plan: %w", err)
	}
	// Pre-crash state must also have survived: the scenario tenant's plan
	// and the burst tenants' exports are served straight from the journal.
	if _, err := get(base2 + "/v1/tenants/line1/plans/latest"); err != nil {
		return fmt.Errorf("line1 plan lost across crash: %w", err)
	}
	metrics, err = get(base2 + "/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(string(metrics), "etsn_service_jobs_recovered_total") {
		return fmt.Errorf("restart /metrics missing the recovery counter")
	}

	// Graceful exit: SIGTERM must drain and return success.
	if err := daemon2.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	state, err := daemon2.Process.Wait()
	if err != nil {
		return err
	}
	if !state.Success() {
		return fmt.Errorf("daemon exited %s after SIGTERM", state)
	}
	daemon2.Process = nil
	return nil
}

// backendLabels returns the backend label of every sample the exposition
// carries for the named counter.
func backendLabels(metrics, name string) []string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, name+`{backend="`); ok {
			if b, _, ok := strings.Cut(rest, `"`); ok {
				out = append(out, b)
			}
		}
	}
	return out
}

type snapshot struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	State     string   `json:"state"`
	Class     string   `json:"class"`
	Error     string   `json:"error"`
	Version   int      `json:"plan_version"`
	ShedTCT   []string `json:"shed_tct"`
	ShedBE    []string `json:"shed_be"`
	Recovered bool     `json:"recovered"`
}

// startDaemon launches the binary and parses "listening on ADDR" from its
// stdout, then waits for /healthz.
func startDaemon(bin string, args []string) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				addrCh <- strings.TrimSpace(rest)
			}
		}
	}()
	select {
	case addr := <-addrCh:
		base := "http://" + addr
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := get(base + "/healthz"); err == nil {
				return cmd, base, nil
			}
			if time.Now().After(deadline) {
				_ = cmd.Process.Kill()
				return nil, "", fmt.Errorf("daemon never became healthy")
			}
			time.Sleep(20 * time.Millisecond)
		}
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		return nil, "", fmt.Errorf("daemon never printed its listen address")
	}
}

func submitAndWait(base, tenant, endpoint string, body []byte) (*snapshot, error) {
	resp, data, err := post(base+"/v1/tenants/"+tenant+"/"+endpoint, body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit %d: %.300s", resp.StatusCode, data)
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return waitJob(base, s.ID)
}

func waitJob(base, id string) (*snapshot, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		s, err := getJob(base, id)
		if err != nil {
			return nil, err
		}
		if s.State == "done" || s.State == "failed" {
			return s, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s stuck in %s", id, s.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func getJob(base, id string) (*snapshot, error) {
	data, err := get(base + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

func get(url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %.200s", url, resp.StatusCode, data)
	}
	return data, nil
}

func post(url string, body []byte) (*http.Response, []byte, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp, nil, err
	}
	return resp, data, nil
}
