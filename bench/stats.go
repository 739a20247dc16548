package main

import "sort"

// summary is what the benchmark reports for one timed quantity: the
// median, the quartiles and the number of samples behind them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of v. The quartiles are the
// ones Python's statistics.quantiles(v, n=4) gives (the exclusive method),
// so spreads computed here and by the driver agree.
func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: len(s)}
}

func median(v []float64) float64 { return summarize(v).Median }

// reported is the value a run reports for a quantity and -compare compares:
// the first quartile of its samples. What the neighbours of a shared host
// do only ever adds to the time of a deterministic computation, so the
// quarter-way sample is closer to the computation's own time than the
// median is, and in three of four ten-run sets of this benchmark it moved
// less from run to run (an interquartile 6 % against 9 % in a quiet hour,
// 11-26 % against 20-35 % in the worst). The minimum moves less still on a
// busy host and more on a quiet one.
func (s summary) reported() float64 { return s.Q1 }
