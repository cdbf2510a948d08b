package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"mobilebench/internal/core"
	"mobilebench/internal/xrand"
)

// baseUnit is one unit's typical record: mean runtime (s) and raw feature
// vector in core.FeatureNames order, as the fast-forwarded simulator
// characterizes the 18 analysis units at its default seed.
type baseUnit struct {
	name     string
	runtime  float64
	features []float64
}

var baseUnits = []baseUnit{
	{"3DMark Slingshot", 178.7, []float64{0.6275, 38.88, 17.29, 0.3461, 0.6083, 0.5982, 0.1522, 0, 0.2533, 0}},
	{"3DMark Slingshot Extreme", 199.9, []float64{0.6714, 34.7, 16.05, 0.2763, 0.6054, 0.6118, 0.1668, 0, 0.2838, 0}},
	{"3DMark Wild Life", 61.94, []float64{0.4579, 56.86, 27.1, 0.256, 0.6052, 0.6704, 0.1674, 0.06054, 0.24, 0}},
	{"3DMark Wild Life Extreme", 74.75, []float64{0.4475, 57.79, 27.19, 0.2573, 0.7718, 0.7294, 0.2382, 0.06159, 0.3195, 0}},
	{"Antutu CPU", 150.8, []float64{0.9345, 24.77, 11.9, 0.4764, 0, 0, 0, 0.08615, 0.1726, 0}},
	{"Antutu GPU", 229.7, []float64{0.5453, 47.8, 20.54, 0.3195, 0.6275, 0.7118, 0.2229, 0.007918, 0.318, 0}},
	{"Antutu Mem", 128.8, []float64{0.4571, 36.92, 18.38, 0.3512, 0, 0, 0, 0, 0.1677, 0.1653}},
	{"Antutu UX", 190.6, []float64{0.8407, 30.88, 12.88, 0.3076, 0, 0, 0, 0.0751, 0.1894, 0}},
	{"Aitutu", 149.3, []float64{0.9274, 32.34, 5.001, 0.4097, 0, 0, 0, 0.1365, 0.1976, 0}},
	{"Geekbench 5 CPU", 120.7, []float64{1.143, 10.48, 9.936, 0.501, 0, 0, 0, 0, 0.1718, 0}},
	{"Geekbench 5 Compute", 104.8, []float64{0.6613, 25.48, 25.29, 0.1513, 0.9522, 0.9237, 0.4422, 0, 0.1741, 0}},
	{"Geekbench 6 CPU", 244.5, []float64{0.9939, 16.64, 10.12, 0.503, 0, 0, 0, 0, 0.1748, 0}},
	{"Geekbench 6 Compute", 179.9, []float64{0.7012, 23.98, 24.28, 0.1516, 0.9666, 0.9376, 0.3946, 0, 0.1957, 0}},
	{"GFXBench High", 1402, []float64{0.568, 50.73, 21.44, 0.2775, 0.8568, 0.8092, 0.1913, 0, 0.2935, 0}},
	{"GFXBench Low", 605.5, []float64{0.5418, 53.18, 22.21, 0.2464, 0.5725, 0.7232, 0.1379, 0, 0.2077, 0}},
	{"GFXBench Special", 45.1, []float64{0.6066, 36, 14.65, 0.1628, 0.4941, 0.4595, 0.1334, 0.3829, 0.2367, 0}},
	{"PCMark Storage", 70.13, []float64{1.11, 21.18, 2.036, 0.1061, 0, 0, 0, 0, 0.1431, 0.6723}},
	{"PCMark Work", 301, []float64{0.817, 22.44, 19.73, 0.2814, 0.1659, 0.2084, 0.07933, 0.0484, 0.2006, 0.01004}},
}

const (
	// lateUnits appear only after the stream is under way.
	lateUnits = 3
	// jitterRel is the per-record relative sigma on every value.
	jitterRel = 0.01
	// outlierProb is the chance a record is an outlier, whose values
	// carry outlierRel sigma instead.
	outlierProb = 0.005
	outlierRel  = 0.25
)

// streamRecords generates the seeded record sequence of n records. Units
// report in rounds, each a seeded permutation of the units present, so
// every unit reports equally often; a few new units (blends of two base
// units) join at seeded points in the middle half of the stream. A unit's
// k-th record carries the same jitter (and, rarely, outlier) in every
// stream: which units hold a column's minimum or maximum decides whether an
// ingest rebuilds the sweep or updates it, and fixing the values keeps that
// mix, and with it the ack and read latencies, comparable across seeds.
func streamRecords(seed uint64, n int) []core.StreamRecord {
	rng := xrand.New(seed).Split(0x5eed)
	joinAt := map[int]baseUnit{}
	for i := 0; i < lateUnits; i++ {
		a, b := baseUnits[rng.Intn(len(baseUnits))], baseUnits[rng.Intn(len(baseUnits))]
		w := 0.25 + 0.5*rng.Float64()
		u := baseUnit{name: fmt.Sprintf("Late Unit %d", i+1), runtime: w*a.runtime + (1-w)*b.runtime}
		for f := range a.features {
			u.features = append(u.features, w*a.features[f]+(1-w)*b.features[f])
		}
		pos := n/4 + rng.Intn(n/2)
		for joinAt[pos].name != "" {
			pos++
		}
		joinAt[pos] = u
	}
	active := append([]baseUnit(nil), baseUnits...)
	noise := map[string]*xrand.Rand{}
	var round []baseUnit
	out := make([]core.StreamRecord, 0, n)
	for i := 0; i < n; i++ {
		u, joins := joinAt[i]
		if joins {
			active = append(active, u)
		} else {
			if len(round) == 0 {
				round = append(round, active...)
				for j := len(round) - 1; j > 0; j-- {
					k := rng.Intn(j + 1)
					round[j], round[k] = round[k], round[j]
				}
			}
			u, round = round[0], round[1:]
		}
		nr := noise[u.name]
		if nr == nil {
			h := fnv.New64a()
			h.Write([]byte(u.name))
			nr = xrand.New(0x5eed).Split(h.Sum64())
			noise[u.name] = nr
		}
		rel := jitterRel
		if nr.Bool(outlierProb) {
			rel = outlierRel
		}
		vary := func(v float64) float64 { return math.Abs(v * (1 + rel*nr.NormFloat64())) }
		rec := core.StreamRecord{Unit: u.name, RuntimeSec: vary(u.runtime), Features: make([]float64, len(u.features))}
		for f, v := range u.features {
			rec.Features[f] = vary(v)
		}
		out = append(out, rec)
	}
	return out
}
