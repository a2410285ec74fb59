package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// Percentiles extracts exact percentiles from raw samples, to cross-check the
// histogram's bucketed estimates.
func Percentiles(samples []time.Duration, qs ...float64) []time.Duration {
	if len(samples) == 0 {
		return make([]time.Duration, len(qs))
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		out[i] = sorted[idx]
	}
	return out
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	h.Observe(10 * time.Microsecond)
	h.Observe(20 * time.Microsecond)
	h.Observe(30 * time.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if m := h.Mean(); m != 20*time.Microsecond {
		t.Fatalf("Mean = %v", m)
	}
}

func TestHistogramQuantilesAgainstExact(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	samples := make([]time.Duration, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-normal-ish latency distribution: most fast, long tail.
		d := time.Duration(50+rng.ExpFloat64()*500) * time.Microsecond
		samples = append(samples, d)
		h.Observe(d)
	}
	exact := Percentiles(samples, 0.5, 0.99, 0.999)
	for i, q := range []float64{0.5, 0.99, 0.999} {
		got := h.Quantile(q)
		// Bucketed estimate must be within ~12.5% above the exact value
		// (one sub-bucket of slack, plus the bucket upper-bound bias).
		lo := exact[i]
		hi := exact[i] + exact[i]/6 + 2*time.Microsecond
		if got < lo || got > hi {
			t.Errorf("q=%v: got %v, exact %v (acceptable [%v, %v])", q, got, exact[i], lo, hi)
		}
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		h.Observe(time.Duration(rng.Intn(1000)+1) * time.Microsecond)
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	prevV, prevF := time.Duration(0), 0.0
	for _, pt := range cdf {
		if pt.Value <= prevV && prevV != 0 {
			t.Fatalf("CDF values not increasing: %v after %v", pt.Value, prevV)
		}
		if pt.Fraction < prevF {
			t.Fatalf("CDF fractions not monotone")
		}
		prevV, prevF = pt.Value, pt.Fraction
	}
	if last := cdf[len(cdf)-1].Fraction; last != 1.0 {
		t.Fatalf("CDF ends at %v, want 1.0", last)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i+1) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Add(3)
			}
		}()
	}
	wg.Wait()
	if m.Total() != 24000 {
		t.Fatalf("Total = %d, want 24000", m.Total())
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(10 * time.Millisecond)
	s.Add(5)
	s.Add(7)
	time.Sleep(25 * time.Millisecond)
	s.Add(1)
	vals := s.Values()
	if len(vals) < 3 {
		t.Fatalf("series too short: %v", vals)
	}
	if vals[0] != 12 {
		t.Errorf("slot 0 = %d, want 12", vals[0])
	}
	var total int64
	for _, v := range vals {
		total += v
	}
	if total != 13 {
		t.Errorf("series total = %d, want 13", total)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(100, 10); got != 10 {
		t.Errorf("Ratio(100,10) = %v", got)
	}
	if got := Ratio(100, 0); got != 0 {
		t.Errorf("Ratio with zero denominator = %v, want 0", got)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.0 KiB",
		5 << 20: "5.0 MiB",
		3 << 30: "3.0 GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestPercentilesEdgeCases(t *testing.T) {
	if got := Percentiles(nil, 0.5); got[0] != 0 {
		t.Error("Percentiles(nil) non-zero")
	}
	got := Percentiles([]time.Duration{5 * time.Millisecond}, 0.001, 0.999)
	if got[0] != 5*time.Millisecond || got[1] != 5*time.Millisecond {
		t.Errorf("single-sample percentiles = %v", got)
	}
}

// TestApplyMetricsLive reads the bundle the way every reader now does: the
// instruments themselves, and the latency histogram's one-lock summary.
func TestApplyMetricsLive(t *testing.T) {
	m := NewApplyMetrics()
	m.Workers.Set(4)
	m.QueueDepth.Add(3)
	m.QueueDepth.Add(-1)
	m.QueueOverflows.Add(2)
	m.Applied.Add(10)
	m.BaseFetches.Add(1)
	m.Latency.Observe(100 * time.Microsecond)
	m.Latency.Observe(300 * time.Microsecond)

	if got := m.Workers.Value(); got != 4 {
		t.Errorf("Workers = %d, want 4", got)
	}
	if got := m.QueueDepth.Value(); got != 2 {
		t.Errorf("QueueDepth = %d, want 2", got)
	}
	if m.QueueOverflows.Total() != 2 || m.Applied.Total() != 10 || m.BaseFetches.Total() != 1 {
		t.Errorf("counters = %d/%d/%d, want 2/10/1",
			m.QueueOverflows.Total(), m.Applied.Total(), m.BaseFetches.Total())
	}
	lat := m.Latency.Summary()
	if lat.Count != 2 {
		t.Errorf("Latency.Count = %d, want 2", lat.Count)
	}
	if lat.MeanUS < 150 || lat.MeanUS > 250 {
		t.Errorf("Latency.MeanUS = %d, want ~200", lat.MeanUS)
	}
	if lat.P50US > lat.P99US || lat.P99US > lat.MaxUS || lat.MaxUS != 300 {
		t.Errorf("summary not ordered: %+v", lat)
	}
}

// TestMeterGaugeHistogramJSON pins the three marshal shapes the admin
// endpoint is built from: a Meter and a Gauge are bare numbers, a Histogram is
// its LatencySummary, and a bundle encoded through a pointer is the object of
// those, with the encode stages keyed by name.
func TestMeterGaugeHistogramJSON(t *testing.T) {
	var m Meter
	m.Add(7)
	var g Gauge
	g.Set(-3)
	h := NewHistogram()
	h.Observe(40 * time.Microsecond)
	for v, want := range map[json.Marshaler]string{
		&m:             `7`,
		&g:             `-3`,
		h:              `{"Count":1,"MeanUS":40,"P50US":40,"P90US":40,"P99US":40,"P999US":40,"MaxUS":40}`,
		NewHistogram(): `{"Count":0,"MeanUS":0,"P50US":0,"P90US":0,"P99US":0,"P999US":0,"MaxUS":0}`,
	} {
		got, err := json.Marshal(v)
		if err != nil || string(got) != want {
			t.Errorf("%T marshals as %s (%v), want %s", v, got, err, want)
		}
	}

	em := NewEncodeMetrics()
	em.EncodedRecords.Add(2)
	em.QueueDepth.Set(5)
	em.ObserveStage(StageDelta, 9*time.Microsecond)
	raw, err := json.Marshal(em)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Stages         map[string]LatencySummary
		EncodedRecords int64
		QueueDepth     int64
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	if got.EncodedRecords != 2 || got.QueueDepth != 5 {
		t.Errorf("bundle numbers = %d/%d, want 2/5 in %s", got.EncodedRecords, got.QueueDepth, raw)
	}
	if len(got.Stages) != int(NumEncodeStages) || got.Stages["delta"].Count != 1 || got.Stages["chunk"].Count != 0 {
		t.Errorf("Stages = %+v, want all %d stages by name with one delta sample", got.Stages, NumEncodeStages)
	}
}
