package main

// Stolen time. The benchmark's machine is a shared host: its hypervisor
// takes a vCPU away whenever another tenant needs the physical core, and
// within minutes the share it takes swings from nothing to more than half
// of what the guest asks for. The guest counts that time as steal in
// /proc/stat. A raw pass time then measures the other tenants as much as
// the program. So an untraced run reads the CPU counters of /proc/stat
// around every pass and removes the stolen share from the pass's times:
// of all the CPU time the guest's vCPUs wanted during the pass (busy plus
// stolen), share f was stolen, and a pass whose ops want a CPU throughout
// lost share f of its wall too. Its wall, op latencies and set-ups are
// multiplied by 1-f, its rates divided by it. Ops much shorter than the
// hypervisor's slices are not each slowed by f: most escape and a few
// take a whole slice. Their percentiles still vary less between runs
// corrected than raw, so they are corrected too. A change to the program
// moves the corrected times as it moves the raw ones; the report prints
// the raw pass walls and the stolen shares next to the metrics.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// cpuTimes is the machine-wide busy and stolen CPU time, in clock ticks,
// from the first line of /proc/stat.
type cpuTimes struct{ busy, steal int64 }

func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return cpuTimes{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
	}
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stolenShare is the share of the CPU time wanted between two readings
// that the hypervisor took: stolen / (busy + stolen).
func stolenShare(from, to cpuTimes) float64 {
	busy, steal := to.busy-from.busy, to.steal-from.steal
	if steal <= 0 || busy+steal <= 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// stealMeter records the stolen share of each measured interval.
type stealMeter struct {
	last   cpuTimes
	shares []float64
}

// start begins an interval.
func (m *stealMeter) start() error {
	t, err := readCPUTimes()
	m.last = t
	return err
}

// stop ends the interval begun by start and returns the factor its times
// are multiplied by: one less its stolen share.
func (m *stealMeter) stop() (float64, error) {
	t, err := readCPUTimes()
	if err != nil {
		return 0, err
	}
	f := stolenShare(m.last, t)
	m.shares = append(m.shares, f)
	return 1 - f, nil
}

// scaled multiplies each of xs by k, in place, and returns xs.
func scaled(xs []float64, k float64) []float64 {
	for i := range xs {
		xs[i] *= k
	}
	return xs
}

// noteSteal notes the stolen shares the run's times were corrected by.
func noteSteal(r *report, m *stealMeter) {
	r.note("stolen share of wanted CPU time per pass: min %.3f median %.3f max %.3f over %d passes; times above exclude it",
		quantile(m.shares, 0), median(m.shares), quantile(m.shares, 1), len(m.shares))
}
