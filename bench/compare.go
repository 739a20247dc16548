package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// resultSet is one side of a comparison: one result file, or several
// from repeated runs of the same commit.
type resultSet struct {
	files []*resultFile
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// readResultSet reads a comma-separated list of result files.
func readResultSet(paths string) (*resultSet, error) {
	var set resultSet
	for _, path := range strings.Split(paths, ",") {
		f, err := readResultFile(path)
		if err != nil {
			return nil, err
		}
		set.files = append(set.files, f)
	}
	return &set, nil
}

// workloads lists the set's workloads in the order of its first file.
func (rs *resultSet) workloads() []string {
	var names []string
	for _, w := range rs.files[0].Workloads {
		names = append(names, w.Workload)
	}
	return names
}

// compared is one side's value of a metric, with the quartiles and the
// number of the samples it stands for.
type compared struct {
	value, q1, q3 float64
	n             int
}

// spread is the interquartile range as a share of the value.
func (c compared) spread() float64 {
	if c.value == 0 {
		return 0
	}
	return (c.q3 - c.q1) / c.value
}

// metric gives an end-to-end metric of a workload over the set. With one
// file that is the value the run reported, with the quartiles of its
// rounds; with several it is the median of the values the runs reported,
// with their quartiles, which is what the bounds are meant for: on a shared
// host the rounds of one run see one mood of the machine, the runs of a set
// see several.
func (rs *resultSet) metric(workload, name string) compared {
	var values []float64
	var only summary
	for _, f := range rs.files {
		for _, w := range f.Workloads {
			if s, ok := w.EndToEnd[name]; ok && w.Workload == workload {
				values = append(values, s.reported())
				only = s
			}
		}
	}
	if len(values) == 1 {
		return compared{only.reported(), only.Q1, only.Q3, only.N}
	}
	s := summarize(values)
	return compared{s.Median, s.Q1, s.Q3, s.N}
}

// failures sums the failed and attempted operations of a workload.
func (rs *resultSet) failures(workload string) (failed, attempted int) {
	for _, f := range rs.files {
		for _, w := range f.Workloads {
			if w.Workload == workload {
				failed += w.Failed
				attempted += w.Attempted
			}
		}
	}
	return failed, attempted
}

// verdict judges a new value of a lower-is-better metric against an old
// one: unresolved when either side's interquartile spread is wider than
// the bound, otherwise by the ratio of the values.
func verdict(old, new compared, bound float64) (ratio float64, v string) {
	if old.value == 0 {
		return 0, "unresolved"
	}
	ratio = new.value / old.value
	switch {
	case old.spread() > bound || new.spread() > bound:
		v = "unresolved"
	case ratio > 1+bound:
		v = "worse"
	case ratio < 1-bound:
		v = "better"
	default:
		v = "same"
	}
	return ratio, v
}

// compareFiles prints one row per workload and end-to-end metric and
// returns an error when a metric got worse by more than its bound or more
// operations failed. Each side is one result file or a comma-separated
// list of them.
func compareFiles(w io.Writer, oldPaths, newPaths string) error {
	oldSet, err := readResultSet(oldPaths)
	if err != nil {
		return err
	}
	newSet, err := readResultSet(newPaths)
	if err != nil {
		return err
	}
	for _, side := range []struct {
		label string
		set   *resultSet
	}{{"old", oldSet}, {"new", newSet}} {
		h := side.set.files[0].Host
		fmt.Fprintf(w, "%s: %d run(s)  commit=%s seed=%d cpus=%d gomaxprocs=%d %s\n", side.label, len(side.set.files),
			h.Commit, h.Seed, h.CPUs, h.GOMAXPROCS, h.GoVersion)
	}
	fmt.Fprintf(w, "%-10s %-16s %-5s %30s %30s %20s %6s  %s\n", "workload", "metric", "unit",
		"old value [q1,q3] n", "new value [q1,q3] n", "ratio new/old", "bound", "verdict")
	var bad []string
	for _, wl := range newSet.workloads() {
		for _, d := range endToEnd {
			o, n := oldSet.metric(wl, d.Name), newSet.metric(wl, d.Name)
			ratio, v := verdict(o, n, d.Bound)
			fmt.Fprintf(w, "%-10s %-16s %-5s %30s %30s %9.4f of %-8.5g %6.3g  %s\n", wl, d.Name, d.Unit,
				fmtCompared(o), fmtCompared(n), ratio, o.value, d.Bound, v)
			if v == "worse" {
				bad = append(bad, wl+"/"+d.Name)
			}
		}
		oFailed, oTried := oldSet.failures(wl)
		nFailed, nTried := newSet.failures(wl)
		of, nf := float64(oFailed)/float64(max(oTried, 1)), float64(nFailed)/float64(max(nTried, 1))
		fmt.Fprintf(w, "%-10s %-16s %-5s %30s %30s\n", wl, "failed_share", "ratio",
			fmt.Sprintf("%.4g (%d/%d)", of, oFailed, oTried), fmt.Sprintf("%.4g (%d/%d)", nf, nFailed, nTried))
		if nf > of {
			bad = append(bad, wl+"/failed_share")
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("worse: %v", bad)
	}
	return nil
}

func fmtCompared(c compared) string {
	return fmt.Sprintf("%.5g [%.5g,%.5g] %d", c.value, c.q1, c.q3, c.n)
}
