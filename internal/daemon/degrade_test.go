package daemon

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// failBase cannot schedule fig4 on fig5: one placement attempt per
// operation is never enough there, so the ladder always gets a turn.
var failBase = &OptionsSpec{AttemptBudget: 1}

// crippled is a rung that fails the same way the base options do.
func crippled(name string) RungSpec { return RungSpec{Name: name, AttemptBudget: 1} }

// rungLadders mirrors the stock ladder rung by rung: for each rung,
// a request ladder in which every earlier rung is crippled so exactly
// the rung under test can win.
func rungLadders() map[string][]RungSpec {
	fast := RungSpec{Name: "fast-search", PermBudget: 512, AttemptBudget: 32}
	relaxed := RungSpec{Name: "relaxed-ii", MaxIIBoost: 64, PermBudget: 1024, AttemptBudget: 128}
	greedy := RungSpec{Name: "greedy", Greedy: true, PermBudget: 256, AttemptBudget: 128}
	return map[string][]RungSpec{
		"fast-search": {fast},
		"relaxed-ii":  {crippled("fast-search"), relaxed},
		"greedy":      {crippled("fast-search"), crippled("relaxed-ii"), greedy},
	}
}

// TestDegradePerRungSuccess drives each ladder rung to be the one that
// rescues a failing compilation, sequential and portfolio alike, and
// pins the response's degraded marker to the winning rung's name.
func TestDegradePerRungSuccess(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, rungs := range rungLadders() {
		t.Run(name, func(t *testing.T) {
			for _, portfolio := range []bool{false, true} {
				req := CompileRequest{Kernel: "fig4", Machine: "fig5", Options: failBase, Ladder: rungs, Portfolio: portfolio}
				status, _, body := postCompile(t, ts, req)
				if status != http.StatusOK {
					t.Fatalf("compile (portfolio %t): %d\n%s", portfolio, status, body)
				}
				var cr CompileResponse
				if err := json.Unmarshal(body, &cr); err != nil {
					t.Fatal(err)
				}
				if cr.Degraded != name {
					t.Errorf("portfolio %t: degraded = %q, want %q", portfolio, cr.Degraded, name)
				}
				if cr.II <= 0 {
					t.Errorf("portfolio %t: rung %s produced no schedule (ii %d)", portfolio, name, cr.II)
				}
			}
		})
	}
}

// TestDegradePerRungDeadline runs each rung configuration against a
// deadline it cannot meet (a delay fault stretches every solver step)
// and requires the daemon to surface 504 deadline-exceeded, not hang
// or mislabel the failure.
func TestDegradePerRungDeadline(t *testing.T) {
	for name, rungs := range rungLadders() {
		t.Run(name, func(t *testing.T) {
			plane := faultinject.New(1, faultinject.Rule{
				Site: faultinject.SiteSolver,
				Nth:  1, Every: 1, Action: faultinject.Delay, Sleep: 10 * time.Millisecond,
			})
			_, ts := newTestServer(t, Config{Faults: plane})
			req := CompileRequest{Kernel: "fig4", Machine: "fig5",
				Options: failBase, Ladder: rungs, TimeoutMS: 5}
			status, _, body := postCompile(t, ts, req)
			if status != http.StatusGatewayTimeout {
				t.Fatalf("deadline compile: %d\n%s", status, body)
			}
			d := decodeError(t, status, body)
			if d.Kind != "deadline-exceeded" {
				t.Errorf("kind = %q, want deadline-exceeded", d.Kind)
			}
		})
	}
}

// TestDegradePerRungCancellation drains the server mid-compilation for
// each rung configuration: the cooperative cancellation must cut the
// ladder short and report 499 client-closed-request with the cancelled
// kind.
func TestDegradePerRungCancellation(t *testing.T) {
	for name, rungs := range rungLadders() {
		t.Run(name, func(t *testing.T) {
			plane := faultinject.New(1, faultinject.Rule{
				Site: faultinject.SiteSolver,
				Nth:  1, Every: 1, Action: faultinject.Delay, Sleep: 10 * time.Millisecond,
			})
			s := mustNew(t, Config{Workers: 1, Faults: plane})
			ts := newLeakCheckedServer(t, s)

			type result struct {
				status int
				body   []byte
			}
			res := make(chan result, 1)
			go func() {
				req := CompileRequest{Kernel: "fig4", Machine: "fig5", Options: failBase, Ladder: rungs}
				status, _, body := postCompile(t, ts, req)
				res <- result{status, body}
			}()
			waitFor(t, 2*time.Second, func() bool { return s.gInflight.Value() == 1 })

			graceCtx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			s.Drain(graceCtx)

			r := <-res
			if r.status != StatusClientClosedRequest {
				t.Fatalf("cancelled compile: %d\n%s", r.status, r.body)
			}
			d := decodeError(t, r.status, r.body)
			if d.Kind != "cancelled" {
				t.Errorf("kind = %q, want cancelled", d.Kind)
			}
		})
	}
}
