package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// sample is one completed client operation.
type sample struct {
	end time.Duration // completion, since the phase began
	lat time.Duration // client round trip
}

// latencySlices is how many equal consecutive slices a phase's samples are cut
// into; a latency metric is the median of the per-slice percentiles, which
// damps a single stall that one pooled p99 would report in full.
const latencySlices = 10

// slicedPercentile orders samples by completion, cuts them into
// latencySlices slices and returns the median of each slice's q-quantile in
// microseconds.
func slicedPercentile(samples []sample, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	n := latencySlices
	if len(samples) < n {
		n = 1
	}
	per := make([]float64, 0, n)
	lats := make([]time.Duration, 0, len(samples)/n+1)
	for s := 0; s < n; s++ {
		lo, hi := s*len(samples)/n, (s+1)*len(samples)/n
		lats = lats[:0]
		for _, x := range samples[lo:hi] {
			lats = append(lats, x.lat)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		per = append(per, float64(lats[int(q*float64(len(lats)-1))])/float64(time.Microsecond))
	}
	return median(per)
}

// pooledPercentile is the plain q-quantile of all samples, in microseconds.
func pooledPercentile(samples []sample, q float64) float64 {
	lats := make([]float64, len(samples))
	for i, x := range samples {
		lats[i] = float64(x.lat) / float64(time.Microsecond)
	}
	return quantile(lats, q)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the q-quantile of v (nearest rank).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
