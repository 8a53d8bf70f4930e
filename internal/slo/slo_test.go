package slo

import (
	"strings"
	"testing"
	"time"

	"rumba/internal/obs"
)

var t0 = time.Unix(1_700_000_000, 0)

func at(secs int) time.Time { return t0.Add(time.Duration(secs) * time.Second) }

func key(budget string) Key { return Key{Tenant: "acme", Kernel: "fft", Budget: budget} }

func TestConfigDefaults(t *testing.T) {
	cfg := New(Config{}).Config()
	if cfg.FastWindow != 5*time.Minute || cfg.SlowWindow != time.Hour {
		t.Fatalf("windows = %v/%v", cfg.FastWindow, cfg.SlowWindow)
	}
	if cfg.PageBurn != 14.4 || cfg.TicketBurn != 3 {
		t.Fatalf("burns = %v/%v", cfg.PageBurn, cfg.TicketBurn)
	}
	if cfg.MinEvents != 10 || cfg.MaxSamples != 720 {
		t.Fatalf("minEvents=%d maxSamples=%d", cfg.MinEvents, cfg.MaxSamples)
	}
	// Inverted configurations are straightened, not obeyed.
	cfg = New(Config{FastWindow: time.Hour, SlowWindow: time.Minute, PageBurn: 2, TicketBurn: 5}).Config()
	if cfg.SlowWindow < cfg.FastWindow {
		t.Fatalf("slow %v < fast %v", cfg.SlowWindow, cfg.FastWindow)
	}
	if cfg.TicketBurn > cfg.PageBurn {
		t.Fatalf("ticket %v > page %v", cfg.TicketBurn, cfg.PageBurn)
	}
}

func TestColdStartPagesQuickly(t *testing.T) {
	e := New(Config{})
	k := key(BudgetTOQ)
	// A fresh tenant delivering 50% bad elements against a 5% budget:
	// burn = 0.5/0.05 = 10 in both windows (cold start spans the series
	// lifetime) — above ticket, below the 14.4 page line.
	e.Record(k, 0.05, 50, 50, at(0))
	e.Record(k, 0.05, 100, 100, at(30))
	alerts := e.Evaluate(at(30))
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts", len(alerts))
	}
	a := alerts[0]
	if a.Severity != SeverityTicket {
		t.Fatalf("severity %q, want ticket: %s", a.Severity, a)
	}
	if a.Fast.Burn < 9.9 || a.Fast.Burn > 10.1 || a.Slow.Burn < 9.9 || a.Slow.Burn > 10.1 {
		t.Fatalf("burns fast=%v slow=%v, want ~10", a.Fast.Burn, a.Slow.Burn)
	}

	// Now 100% bad: burn 20 ≥ 14.4 in both windows pages.
	e.Record(k, 0.05, 100, 300, at(60))
	a = e.Evaluate(at(60))[0]
	if a.Severity != SeverityPage {
		t.Fatalf("severity %q, want page: %s", a.Severity, a)
	}
	if a.Fast.SpanSeconds > a.Fast.Seconds {
		t.Fatalf("span %v exceeds window %v", a.Fast.SpanSeconds, a.Fast.Seconds)
	}
}

func TestHealthySeriesStaysOK(t *testing.T) {
	e := New(Config{})
	k := key(BudgetLatency)
	e.Record(k, 0.01, 1000, 0, at(0))
	e.Record(k, 0.01, 2000, 1, at(60))
	a := e.Evaluate(at(60))[0]
	if a.Severity != SeverityOK {
		t.Fatalf("severity %q, want ok: %s", a.Severity, a)
	}
	if a.Fast.Burn <= 0 || a.Fast.Burn >= 1 {
		t.Fatalf("burn %v, want small positive", a.Fast.Burn)
	}
	if got := Firing(e.Evaluate(at(60))); got != nil {
		t.Fatalf("Firing returned %v for a healthy series", got)
	}
}

func TestMinEventsSuppressesNoise(t *testing.T) {
	e := New(Config{MinEvents: 100})
	k := key(BudgetShed)
	// 10 events, all bad — a huge burn, but below the event floor.
	e.Record(k, 0.01, 0, 5, at(0))
	e.Record(k, 0.01, 0, 10, at(10))
	a := e.Evaluate(at(10))[0]
	if a.Severity != SeverityOK {
		t.Fatalf("severity %q on %d events, want ok", a.Severity, a.Fast.Total)
	}
	if a.Fast.Burn <= 1 {
		t.Fatalf("burn %v should still be reported", a.Fast.Burn)
	}
}

func TestFastRecoveryClearsFastWindow(t *testing.T) {
	e := New(Config{FastWindow: time.Minute, SlowWindow: 10 * time.Minute})
	k := key(BudgetTOQ)
	// Minute 0-2: burning hard — every element bad, burn 1/0.05 = 20.
	e.Record(k, 0.05, 0, 0, at(0))
	e.Record(k, 0.05, 0, 100, at(120))
	if a := e.Evaluate(at(120))[0]; a.Severity != SeverityPage {
		t.Fatalf("burning series = %q, want page", a.Severity)
	}
	// Minutes 2-12: clean traffic. The fast window sees only good events and
	// the alert clears, even though the slow window still remembers the burn.
	for s := 180; s <= 600; s += 60 {
		e.Record(k, 0.05, int64((s-120)*10), 100, at(s))
	}
	a := e.Evaluate(at(600))[0]
	if a.Fast.Bad != 0 {
		t.Fatalf("fast window still sees %d bad", a.Fast.Bad)
	}
	if a.Slow.Bad == 0 {
		t.Fatal("slow window forgot the burn too early")
	}
	if a.Severity != SeverityOK {
		t.Fatalf("recovered series = %q, want ok", a.Severity)
	}
}

func TestCounterResetRestartsSeries(t *testing.T) {
	e := New(Config{})
	k := key(BudgetTOQ)
	e.Record(k, 0.05, 1000, 500, at(0))
	e.Record(k, 0.05, 2000, 900, at(30))
	// Node restart: totals drop to near zero. No negative deltas, no phantom
	// page from the old life.
	e.Record(k, 0.05, 10, 0, at(60))
	e.Record(k, 0.05, 100, 0, at(90))
	a := e.Evaluate(at(90))[0]
	if a.Fast.Bad != 0 || a.Severity != SeverityOK {
		t.Fatalf("post-reset alert = %s", a)
	}
	if a.Fast.Total != 100 {
		t.Fatalf("post-reset total = %d, want the new life's 100", a.Fast.Total)
	}
}

func TestOutOfOrderAndSameInstantReadings(t *testing.T) {
	e := New(Config{})
	k := key(BudgetTOQ)
	e.Record(k, 0.05, 100, 0, at(10))
	// Same-instant reading updates totals in place instead of growing a
	// zero-span sample.
	e.Record(k, 0.05, 150, 10, at(10))
	a := e.Evaluate(at(10))[0]
	if a.Fast.Total != 160 || a.Fast.Bad != 10 {
		t.Fatalf("in-place update lost: %s", a)
	}
}

func TestPruneKeepsBaselineAndCapsSamples(t *testing.T) {
	e := New(Config{FastWindow: time.Minute, SlowWindow: 5 * time.Minute, MaxSamples: 8})
	k := key(BudgetTOQ)
	for i := 0; i <= 100; i++ {
		e.Record(k, 0.05, int64(i*100), int64(i), at(i*10))
	}
	e.mu.Lock()
	n := len(e.series[k].samples)
	e.mu.Unlock()
	if n > 8 {
		t.Fatalf("series holds %d samples, cap 8", n)
	}
	// Rates still computable after pruning.
	a := e.Evaluate(at(1000))[0]
	if a.Slow.Total <= 0 {
		t.Fatalf("pruned series lost its window: %s", a)
	}
}

// TestPerRequestFeedingKeepsFastWindow feeds one series per request, as the
// serving layer does: a healthy hour at 10 readings/s, then five minutes in
// which every element misses. The fast window must burn at nearly 1/0.05 =
// 20. A ring holding only the last MaxSamples readings finds no baseline
// inside either window and reports the lifetime fraction instead: 3000 bad
// of 39000 elements, a burn of 1.54.
func TestPerRequestFeedingKeepsFastWindow(t *testing.T) {
	e := New(Config{})
	k := key(BudgetTOQ)
	const perSecond = 10
	now := t0
	var good, bad int64
	feed := func(seconds int, miss bool) {
		for range seconds * perSecond {
			if miss {
				bad++
			} else {
				good++
			}
			now = now.Add(time.Second / perSecond)
			e.Record(k, 0.05, good, bad, now)
		}
	}
	feed(3600, false)
	feed(300, true)
	a := e.Evaluate(now)[0]
	if a.Fast.Burn < 19.5 {
		t.Fatalf("fast burn %.2f after five all-miss minutes, want about 20: %s", a.Fast.Burn, a)
	}
	// The slow window holds 55 healthy minutes and the 5 bad ones: 3000 bad
	// of 36000, a burn of 1.67.
	if a.Slow.Burn < 1.6 || a.Slow.Burn > 1.75 {
		t.Fatalf("slow burn %.2f, want about 1.67: %s", a.Slow.Burn, a)
	}
	e.mu.Lock()
	n := len(e.series[k].samples)
	e.mu.Unlock()
	if n > e.Config().MaxSamples {
		t.Fatalf("series holds %d samples, cap %d", n, e.Config().MaxSamples)
	}
}

func TestIgnoredRecords(t *testing.T) {
	var nilE *Engine
	nilE.Record(key(BudgetTOQ), 0.05, 1, 1, at(0)) // must not panic
	if nilE.Evaluate(at(0)) != nil || nilE.Tenant("acme", at(0)) != nil {
		t.Fatal("nil engine produced alerts")
	}
	nilE.Forget("acme")

	e := New(Config{})
	e.Record(key(BudgetTOQ), 0, 100, 100, at(0)) // target <= 0 is not a series
	if got := e.Evaluate(at(0)); len(got) != 0 {
		t.Fatalf("zero-target record created series: %v", got)
	}
}

func TestTenantFilterAndForget(t *testing.T) {
	e := New(Config{})
	e.Record(Key{Tenant: "a", Budget: BudgetTOQ}, 0.05, 10, 0, at(0))
	e.Record(Key{Tenant: "a", Budget: BudgetShed}, 0.01, 10, 0, at(0))
	e.Record(Key{Tenant: "b", Budget: BudgetTOQ}, 0.05, 10, 0, at(0))
	if got := e.Tenant("a", at(1)); len(got) != 2 {
		t.Fatalf("tenant a has %d series, want 2", len(got))
	}
	if got := e.Tenant("zzz", at(1)); got != nil {
		t.Fatalf("unknown tenant returned %v", got)
	}
	all := e.Evaluate(at(1))
	if len(all) != 3 || all[0].Tenant != "a" || all[2].Tenant != "b" {
		t.Fatalf("evaluate order: %v", all)
	}
	if all[0].Budget >= all[1].Budget && all[0].Tenant == all[1].Tenant {
		t.Fatalf("budgets not sorted: %v", all)
	}
	e.Forget("a")
	if got := e.Evaluate(at(1)); len(got) != 1 || got[0].Tenant != "b" {
		t.Fatalf("forget left %v", got)
	}
}

func TestPublishMirrorsGauges(t *testing.T) {
	e := New(Config{})
	reg := obs.NewRegistry()
	k := key(BudgetTOQ)
	e.Record(k, 0.05, 0, 100, at(0))
	e.Record(k, 0.05, 0, 200, at(30))
	alerts := e.Publish(reg, at(30))
	if len(alerts) != 1 || alerts[0].Severity != SeverityPage {
		t.Fatalf("publish evaluated %v", alerts)
	}
	snap := reg.Snapshot()
	alertGauge := obs.Labeled("slo.alert", "tenant", "acme", "budget", BudgetTOQ)
	if g := snap.Gauges[alertGauge]; g.Value != 2 {
		t.Fatalf("%s = %v, want page level 2", alertGauge, g.Value)
	}
	fast := obs.Labeled("slo.burn.fast", "tenant", "acme", "budget", BudgetTOQ)
	if g := snap.Gauges[fast]; g.Value < 19 || g.Value > 21 {
		t.Fatalf("%s = %v, want ~20", fast, g.Value)
	}
	// Publish with a nil registry still evaluates.
	if got := e.Publish(nil, at(30)); len(got) != 1 {
		t.Fatalf("nil-registry publish = %v", got)
	}
	if s := alerts[0].String(); !strings.Contains(s, "page") || !strings.Contains(s, "acme") {
		t.Fatalf("String() = %q", s)
	}
}

func TestSeverityLevels(t *testing.T) {
	if severityLevel(SeverityPage) != 2 || severityLevel(SeverityTicket) != 1 || severityLevel(SeverityOK) != 0 {
		t.Fatal("severity scale wrong")
	}
	if severityLevel("junk") != 0 {
		t.Fatal("unknown severity not 0")
	}
}
