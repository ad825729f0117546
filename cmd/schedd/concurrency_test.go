package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestScheddConcurrentClients hammers every mutating endpoint from many
// goroutine clients at once — the serial handler tests never exercise the
// daemon's locking. Two shards each run an adaptive loop; submitters race
// each other and a completer; a flipper hot-swaps the policy
// mid-traffic; an advancer nudges the clocks; a poller watches
// /v1/status and /v1/adapt throughout. Run under -race this checks the
// daemon's synchronization; the assertions check its semantics under
// interleaving:
//
//   - the logical clock never goes backward between sequential polls,
//   - every response is well-formed (200 with starts, or a structured
//     error; never a mangled body from a torn shared buffer),
//   - the runtime invariant checker (Check: true) stays silent, and
//   - after a single-threaded drain, the totals reconcile: every
//     submitted job started and completed exactly once.
func TestScheddConcurrentClients(t *testing.T) {
	const (
		cores      = 32
		submitters = 4
		perClient  = 120
	)
	total := submitters * perClient
	cfg := testConfig(cores)
	cfg.shards = 2
	_, ts := startServer(t, cfg)
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 16

	// The logical clock all clients share: every request takes a fresh,
	// strictly increasing "now", so any clock regression observed at the
	// server is the server's fault.
	var clock atomic.Int64
	tick := func() float64 { return float64(clock.Add(1)) }

	var (
		failures  atomic.Int64
		firstFail sync.Once
		failMsg   string
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		firstFail.Do(func() { failMsg = fmt.Sprintf(format, args...) })
	}

	doPost := func(path, body string) (int, reply) {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			fail("POST %s: %v", path, err)
			return 0, reply{}
		}
		defer resp.Body.Close()
		var r reply
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			fail("POST %s: mangled response body: %v", path, err)
			return resp.StatusCode, reply{}
		}
		if resp.StatusCode != 200 && r.Error == "" {
			fail("POST %s: status %d without an error body", path, resp.StatusCode)
		}
		return resp.StatusCode, r
	}

	// Started jobs are collected under a lock; the completer pops from
	// the set while the storm runs, the drain phase empties it after.
	runtimeOf := func(id int) float64 { return []float64{30, 120, 45, 300}[id%4] }
	var (
		startMu        sync.Mutex
		pendingStarts  []int
		startedTotal   int
		completedTotal atomic.Int64
	)
	record := func(r *reply) {
		if len(r.Started) == 0 {
			return
		}
		startMu.Lock()
		for _, st := range r.Started {
			pendingStarts = append(pendingStarts, st.ID)
			startedTotal++
		}
		startMu.Unlock()
	}
	pop := func() (int, bool) {
		startMu.Lock()
		defer startMu.Unlock()
		if len(pendingStarts) == 0 {
			return 0, false
		}
		id := pendingStarts[len(pendingStarts)-1]
		pendingStarts = pendingStarts[:len(pendingStarts)-1]
		return id, true
	}
	complete := func(id int) {
		code, r := doPost("/v1/complete", fmt.Sprintf(`{"id":%d,"now":%g}`, id, tick()))
		if code != 200 {
			fail("complete %d rejected: %d %s", id, code, r.Error)
			return
		}
		completedTotal.Add(1)
		record(&r)
	}

	if code, r := doPost("/v1/adapt", `{"action":"start","interval":40,"window":64,"min_window":8,"tuples":1,"trials":8,"topk":1,"workers":1,"seed":3}`); code != 200 {
		t.Fatalf("adapt start: %d %s", code, r.Error)
	}

	// The storm: submitters, a completer, a policy flipper, an advancer.
	// The completer keeps racing until every producer goroutine is done
	// (stormDone), so completions genuinely interleave with submissions.
	var storm, producers sync.WaitGroup
	stormDone := make(chan struct{})
	for c := 0; c < submitters; c++ {
		storm.Add(1)
		producers.Add(1)
		go func(c int) {
			defer storm.Done()
			defer producers.Done()
			for i := 0; i < perClient; i++ {
				id := c*perClient + i + 1
				body := fmt.Sprintf(`{"id":%d,"cores":%d,"runtime":%g,"estimate":%g,"now":%g}`,
					id, []int{1, 2, 4, 8}[id%4], runtimeOf(id), runtimeOf(id), tick())
				if code, r := doPost("/v1/submit", body); code == 200 {
					record(&r)
				} else {
					fail("submit %d rejected: %d %s", id, code, r.Error)
				}
			}
		}(c)
	}
	storm.Add(1)
	go func() { // completer
		defer storm.Done()
		for {
			id, ok := pop()
			if ok {
				complete(id)
				continue
			}
			select {
			case <-stormDone:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	storm.Add(1)
	producers.Add(1)
	go func() { // policy flipper
		defer storm.Done()
		defer producers.Done()
		for i := 0; i < 40; i++ {
			body := `{"name":"FCFS"}`
			if i%2 == 0 {
				body = `{"name":"L","expr":"r*n + 0*log10(s)"}`
			}
			if code, r := doPost("/v1/policy", body); code != 200 {
				fail("policy flip rejected: %d %s", code, r.Error)
			}
		}
	}()
	storm.Add(1)
	producers.Add(1)
	go func() { // advancer
		defer storm.Done()
		defer producers.Done()
		for i := 0; i < 80; i++ {
			if code, r := doPost("/v1/advance", fmt.Sprintf(`{"now":%g}`, tick())); code == 200 {
				record(&r)
			} else {
				fail("advance rejected: %d %s", code, r.Error)
			}
		}
	}()

	// The poller runs outside the storm group and is stopped last.
	pollDone := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		last := -1.0
		for {
			select {
			case <-pollDone:
				return
			default:
			}
			resp, err := client.Get(ts.URL + "/v1/status")
			if err != nil {
				fail("status: %v", err)
				return
			}
			var st struct {
				Now                float64 `json:"now"`
				InvariantViolation string  `json:"invariant_violation"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				fail("status: mangled body: %v", err)
				return
			}
			if st.Now < last {
				fail("clock went backward: %g after %g", st.Now, last)
			}
			last = st.Now
			if st.InvariantViolation != "" {
				fail("invariant violation: %s", st.InvariantViolation)
			}
			resp, err = client.Get(ts.URL + "/v1/adapt")
			if err != nil {
				fail("adapt: %v", err)
				return
			}
			var ad struct {
				LastError string `json:"last_error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&ad)
			resp.Body.Close()
			if err != nil {
				fail("adapt: mangled body: %v", err)
				return
			}
			if ad.LastError != "" {
				fail("adaptive loop failed: %s", ad.LastError)
			}
		}
	}()

	// Wait out the storm, then drain single-threaded: advance the clock
	// and complete everything that starts until all jobs have retired.
	go func() {
		producers.Wait()
		close(stormDone)
	}()
	storm.Wait()
	for completedTotal.Load() < int64(total) && failures.Load() == 0 {
		if code, r := doPost("/v1/advance", fmt.Sprintf(`{"now":%g}`, tick())); code == 200 {
			record(&r)
		}
		for {
			id, ok := pop()
			if !ok {
				break
			}
			complete(id)
		}
	}
	close(pollDone)
	pollWG.Wait()

	if failures.Load() > 0 {
		t.Fatalf("%d failures; first: %s", failures.Load(), failMsg)
	}
	startMu.Lock()
	st := startedTotal
	startMu.Unlock()
	if st != total || completedTotal.Load() != int64(total) {
		t.Fatalf("started %d and completed %d of %d jobs", st, completedTotal.Load(), total)
	}

	// Final ground truth from the server.
	var fin struct {
		Queued, Running, Submitted, Completed int
		InvariantViolation                    string `json:"invariant_violation"`
	}
	get(t, ts, "/v1/status", &fin)
	if fin.Submitted != total || fin.Completed != total || fin.Queued != 0 || fin.Running != 0 {
		t.Fatalf("final state inconsistent: %+v (want %d submitted and completed, nothing active)", fin, total)
	}
	if fin.InvariantViolation != "" {
		t.Fatalf("invariant violation: %s", fin.InvariantViolation)
	}
	var ad adaptStatusReply
	get(t, ts, "/v1/adapt", &ad)
	if !ad.Enabled || ad.Rounds == 0 {
		t.Fatalf("the adaptive loops never retrained under the storm: %+v", ad)
	}
}
