package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"genogo/internal/expr"
	"genogo/internal/resilience"
)

// cancelLatencyBound is the acceptance bound: a query canceled mid-flight
// must stop all backend workers within this window.
const cancelLatencyBound = 100 * time.Millisecond

// governedConfigs covers every backend the governance layer must stop:
// serial, batch (unfused, concurrent binary operands) and stream (fused).
func governedConfigs() []Config {
	return []Config{
		{Mode: ModeSerial, MetaFirst: true},
		{Mode: ModeBatch, Workers: 3, MetaFirst: true},
		{Mode: ModeStream, Workers: 3, MetaFirst: true},
	}
}

func cfgLabel(cfg Config) string {
	return fmt.Sprintf("%s_fusion=%v", cfg.Mode, cfg.Mode == ModeStream)
}

// governedPlan exercises the fused-chain path (two stacked SELECTs), the
// binary evalPair path (UNION evaluates its right operand on a second
// goroutine in stream mode), and the scan path.
func governedPlan(dataset string) Node {
	chain := &SelectOp{
		Input:  &SelectOp{Input: &Scan{Dataset: dataset}, Meta: expr.MetaTrue{}, Region: expr.True{}},
		Meta:   expr.MetaTrue{},
		Region: expr.True{},
	}
	return &UnionOp{Left: chain, Right: &Scan{Dataset: dataset}}
}

func governedCatalog(t *testing.T) MapCatalog {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return MapCatalog{"peaks": randomDataset(rng, "peaks", 24, 8)}
}

// TestCancelMidFlightStopsWithinBound is the acceptance test for the
// cancellation-latency bound: on every backend, the stuck-operator injector
// wedges the kernels, the query is canceled at a known-stuck moment, and the
// session must return ErrCanceled within cancelLatencyBound.
func TestCancelMidFlightStopsWithinBound(t *testing.T) {
	cat := governedCatalog(t)
	for _, cfg := range governedConfigs() {
		cfg := cfg
		t.Run(cfgLabel(cfg), func(t *testing.T) {
			staller := &resilience.Staller{}
			defer staller.Release()
			cfg.Stall = staller.Hook
			sess := NewSession(cfg, cat)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stop := sess.Govern(ctx, Limits{})
			defer stop()
			errCh := make(chan error, 1)
			go func() {
				_, err := sess.Eval(governedPlan("peaks"))
				errCh <- err
			}()
			if !staller.WaitStalled(1, 5*time.Second) {
				t.Fatal("no operator entered the stall injector")
			}
			begin := time.Now()
			cancel()
			select {
			case err := <-errCh:
				latency := time.Since(begin)
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("want ErrCanceled, got %v", err)
				}
				if reason, ok := Killed(err); !ok || reason != "canceled" {
					t.Fatalf("Killed(%v) = %q, %v; want canceled, true", err, reason, ok)
				}
				if latency > cancelLatencyBound {
					t.Fatalf("cancellation latency %v exceeds bound %v", latency, cancelLatencyBound)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("query did not stop after cancellation")
			}
		})
	}
}

// TestCancelDeadline verifies that a session deadline kills a wedged query
// with the typed ErrDeadline.
func TestCancelDeadline(t *testing.T) {
	cat := governedCatalog(t)
	for _, cfg := range governedConfigs() {
		cfg := cfg
		t.Run(cfgLabel(cfg), func(t *testing.T) {
			staller := &resilience.Staller{}
			defer staller.Release()
			cfg.Stall = staller.Hook
			sess := NewSession(cfg, cat)
			stop := sess.Govern(context.Background(), Limits{Deadline: 50 * time.Millisecond})
			defer stop()
			errCh := make(chan error, 1)
			go func() {
				_, err := sess.Eval(governedPlan("peaks"))
				errCh <- err
			}()
			select {
			case err := <-errCh:
				if !errors.Is(err, ErrDeadline) {
					t.Fatalf("want ErrDeadline, got %v", err)
				}
				if reason, ok := Killed(err); !ok || reason != "deadline" {
					t.Fatalf("Killed(%v) = %q, %v; want deadline, true", err, reason, ok)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("deadline did not kill the wedged query")
			}
		})
	}
}

// TestGovernBudgetOutputRegions verifies the per-operator output-region
// budget trips with a typed BudgetError naming the offending operator.
func TestGovernBudgetOutputRegions(t *testing.T) {
	cat := governedCatalog(t)
	for _, cfg := range governedConfigs() {
		cfg := cfg
		t.Run(cfgLabel(cfg), func(t *testing.T) {
			sess := NewSession(cfg, cat)
			stop := sess.Govern(context.Background(), Limits{MaxOutputRegions: 10})
			defer stop()
			_, err := sess.Eval(governedPlan("peaks"))
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("want ErrBudgetExceeded, got %v", err)
			}
			var berr *BudgetError
			if !errors.As(err, &berr) {
				t.Fatalf("want *BudgetError, got %T: %v", err, err)
			}
			if berr.Op == "" || berr.Resource != "output regions" || berr.Limit != 10 {
				t.Fatalf("unexpected budget error: %+v", berr)
			}
			if reason, ok := Killed(err); !ok || reason != "budget" {
				t.Fatalf("Killed(%v) = %q, %v; want budget, true", err, reason, ok)
			}
		})
	}
}

// TestGovernBudgetResidentBytes verifies the session-wide resident-byte
// budget trips at an operator boundary.
func TestGovernBudgetResidentBytes(t *testing.T) {
	cat := governedCatalog(t)
	sess := NewSession(Config{Mode: ModeStream, Workers: 3, MetaFirst: true}, cat)
	stop := sess.Govern(context.Background(), Limits{MaxResidentBytes: 64})
	defer stop()
	_, err := sess.Eval(governedPlan("peaks"))
	var berr *BudgetError
	if !errors.As(err, &berr) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if berr.Resource != "resident bytes" {
		t.Fatalf("want resident bytes violation, got %+v", berr)
	}
}

// TestGovernedMatchesUngoverned pins that governance with generous budgets
// does not change results.
func TestGovernedMatchesUngoverned(t *testing.T) {
	cat := governedCatalog(t)
	for _, cfg := range governedConfigs() {
		cfg := cfg
		t.Run(cfgLabel(cfg), func(t *testing.T) {
			want, err := NewSession(cfg, cat).Eval(governedPlan("peaks"))
			if err != nil {
				t.Fatal(err)
			}
			sess := NewSession(cfg, cat)
			stop := sess.Govern(context.Background(), Limits{
				MaxOutputRegions: 1 << 30,
				MaxResidentBytes: 1 << 40,
				Deadline:         time.Minute,
			})
			defer stop()
			got, err := sess.Eval(governedPlan("peaks"))
			if err != nil {
				t.Fatal(err)
			}
			datasetsEquivalent(t, cfgLabel(cfg), want, got)
		})
	}
}

// TestCancelRunContext covers the RunContext convenience entry point.
func TestCancelRunContext(t *testing.T) {
	cat := governedCatalog(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{Mode: ModeSerial, MetaFirst: true}, governedPlan("peaks"), cat, Limits{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled from pre-canceled context, got %v", err)
	}
}

// TestKilledClassifier pins the reason classification CLIs and servers key
// exit codes and console states on.
func TestKilledClassifier(t *testing.T) {
	cases := []struct {
		err    error
		reason string
		ok     bool
	}{
		{nil, "", false},
		{errors.New("boom"), "", false},
		{ErrCanceled, "canceled", true},
		{ErrDeadline, "deadline", true},
		{context.Canceled, "canceled", true},
		{context.DeadlineExceeded, "deadline", true},
		{&BudgetError{Op: "JOIN", Resource: "output regions", Limit: 1, Used: 2}, "budget", true},
		{fmt.Errorf("wrapping: %w", ErrCanceled), "canceled", true},
		{fmt.Errorf("wrapping: %w", &BudgetError{}), "budget", true},
	}
	for _, c := range cases {
		reason, ok := Killed(c.err)
		if reason != c.reason || ok != c.ok {
			t.Errorf("Killed(%v) = %q, %v; want %q, %v", c.err, reason, ok, c.reason, c.ok)
		}
	}
}

// TestCancelSlowConsumer verifies the slow-consumer flavor of the injector:
// delayed items finish, the query completes, and the injector saw traffic.
func TestCancelSlowConsumer(t *testing.T) {
	cat := governedCatalog(t)
	staller := &resilience.Staller{Delay: time.Millisecond}
	cfg := Config{Mode: ModeBatch, Workers: 3, MetaFirst: true, Stall: staller.Hook}
	sess := NewSession(cfg, cat)
	stop := sess.Govern(context.Background(), Limits{})
	defer stop()
	if _, err := sess.Eval(governedPlan("peaks")); err != nil {
		t.Fatal(err)
	}
	if staller.Entered() == 0 {
		t.Fatal("slow-consumer injector saw no work items")
	}
}
