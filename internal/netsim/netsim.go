// Package netsim models the wide-area network conditions of the paper's
// evaluation: the measured SuperJANET FTP bandwidths between Southampton
// and London (Queen Mary & Westfield College), asymmetric by direction
// and time of day, plus a max-min fair bandwidth-sharing model used for
// the contention experiments (many clients against one or many file
// servers).
//
// The paper's Table 1 law is simple and exact: transfer time =
// bytes × 8 / bandwidth, with decimal megabytes and megabits. The same
// law, plus fair sharing under contention, drives every bandwidth
// experiment in internal/exp.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Rate is a link bandwidth in bits per second.
type Rate float64

// Convenience rate units (decimal, as in the paper).
const (
	BitPerSec  Rate = 1
	KbitPerSec Rate = 1e3
	MbitPerSec Rate = 1e6
	GbitPerSec Rate = 1e9
)

// String renders the rate the way the paper's table does: Mbit/s for
// everything in the WAN range (the table shows "0.25 Mbit/s").
func (r Rate) String() string {
	switch {
	case r >= GbitPerSec:
		return fmt.Sprintf("%.2f Gbit/s", float64(r)/1e9)
	case r >= MbitPerSec/10:
		return fmt.Sprintf("%.2f Mbit/s", float64(r)/1e6)
	case r >= KbitPerSec:
		return fmt.Sprintf("%.2f Kbit/s", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.0f bit/s", float64(r))
	}
}

// Period is the time-of-day band of the paper's measurements.
type Period int

// Measurement periods.
const (
	Day Period = iota
	Evening
)

// String names the period as in Table 1.
func (p Period) String() string {
	if p == Evening {
		return "Evening"
	}
	return "Day"
}

// Direction is the transfer direction relative to the archive site.
type Direction int

// Transfer directions, named from the paper's table ("To Southampton"
// is an upload into the archive site; "From Southampton" a download).
const (
	ToArchive Direction = iota
	FromArchive
)

// String names the direction as in Table 1.
func (d Direction) String() string {
	if d == FromArchive {
		return "From Southampton"
	}
	return "To Southampton"
}

// TransferTime applies the paper's law: bytes × 8 / rate, rounded to the
// nearest second exactly as the published table rounds.
func TransferTime(bytes int64, r Rate) time.Duration {
	if r <= 0 {
		return time.Duration(math.MaxInt64)
	}
	seconds := float64(bytes) * 8 / float64(r)
	return time.Duration(math.Round(seconds)) * time.Second
}

// TransferTimeExact is the unrounded law, for simulations that
// accumulate many legs.
func TransferTimeExact(bytes int64, r Rate) time.Duration {
	if r <= 0 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(float64(bytes) * 8 / float64(r) * float64(time.Second))
}

// Schedule is a diurnal, directional bandwidth schedule for one WAN path.
type Schedule struct {
	// Rates[period][direction]
	rates [2][2]Rate
}

// NewSchedule builds a schedule from the four measured cells.
func NewSchedule(dayTo, dayFrom, eveningTo, eveningFrom Rate) Schedule {
	var s Schedule
	s.rates[Day][ToArchive] = dayTo
	s.rates[Day][FromArchive] = dayFrom
	s.rates[Evening][ToArchive] = eveningTo
	s.rates[Evening][FromArchive] = eveningFrom
	return s
}

// Rate returns the bandwidth for a period and direction.
func (s Schedule) Rate(p Period, d Direction) Rate { return s.rates[p][d] }

// SuperJANET1999 is the paper's measured schedule: repeated FTP
// measurements between Southampton and QMW London, both on 10 Mbit/s
// SuperJANET connections (Table 1).
var SuperJANET1999 = NewSchedule(
	0.25*MbitPerSec, // Day, To Southampton
	0.37*MbitPerSec, // Day, From Southampton
	0.58*MbitPerSec, // Evening, To Southampton
	1.94*MbitPerSec, // Evening, From Southampton
)

// Paper file sizes: the two simulation resolutions the UK Turbulence
// Consortium used (decimal megabytes, as the timings confirm).
const (
	SmallSimulationBytes int64 = 85 * 1000 * 1000
	LargeSimulationBytes int64 = 544 * 1000 * 1000
)

// FormatDuration renders a duration in the paper's "4h50m08s" /
// "45m20s" style.
func FormatDuration(d time.Duration) string {
	d = d.Round(time.Second)
	h := int(d / time.Hour)
	m := int(d/time.Minute) % 60
	s := int(d/time.Second) % 60
	if h > 0 {
		return fmt.Sprintf("%dh%02dm%02ds", h, m, s)
	}
	return fmt.Sprintf("%dm%02ds", m, s)
}

// ---------- contention model ----------

// Flow is one transfer in the contention simulator.
type Flow struct {
	// Src and Dst name the endpoints; capacity constraints attach to
	// endpoint egress (Src) and ingress (Dst).
	Src, Dst string
	Bytes    int64
}

// Topology holds per-endpoint capacity limits. A missing entry means
// unlimited in that direction.
type Topology struct {
	Egress  map[string]Rate // upload capacity per endpoint
	Ingress map[string]Rate // download capacity per endpoint
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{Egress: make(map[string]Rate), Ingress: make(map[string]Rate)}
}

// maxMinRates computes the max-min fair allocation for the active flows
// via progressive filling: repeatedly saturate the tightest constraint,
// freeze its flows, and continue with residual capacity.
func (t *Topology) maxMinRates(flows []Flow, active []bool) []Rate {
	rates := make([]Rate, len(flows))
	type constraint struct {
		cap   float64
		flows []int
	}
	remaining := map[string]*constraint{}
	addFlow := func(key string, capacity Rate, i int) {
		c, ok := remaining[key]
		if !ok {
			c = &constraint{cap: float64(capacity)}
			remaining[key] = c
		}
		c.flows = append(c.flows, i)
	}
	frozen := make([]bool, len(flows))
	nActive := 0
	for i, f := range flows {
		if !active[i] {
			frozen[i] = true
			continue
		}
		nActive++
		if capacity, ok := t.Egress[f.Src]; ok {
			addFlow("e:"+f.Src, capacity, i)
		}
		if capacity, ok := t.Ingress[f.Dst]; ok {
			addFlow("i:"+f.Dst, capacity, i)
		}
	}
	for nActive > 0 {
		// Find the tightest constraint (min cap / unfrozen flow count).
		var (
			bestKey  string
			bestFair = math.Inf(1)
		)
		for key, c := range remaining {
			n := 0
			for _, fi := range c.flows {
				if !frozen[fi] {
					n++
				}
			}
			if n == 0 {
				delete(remaining, key)
				continue
			}
			fair := c.cap / float64(n)
			if fair < bestFair {
				bestFair = fair
				bestKey = key
			}
		}
		if math.IsInf(bestFair, 1) {
			// No constraints left: unconstrained flows get "infinite"
			// bandwidth; model as 100 Gbit/s LAN.
			for i := range flows {
				if !frozen[i] {
					rates[i] = 100 * GbitPerSec
					frozen[i] = true
					nActive--
				}
			}
			break
		}
		c := remaining[bestKey]
		for _, fi := range c.flows {
			if frozen[fi] {
				continue
			}
			rates[fi] = Rate(bestFair)
			frozen[fi] = true
			nActive--
			// Subtract this flow's share from its other constraints.
			f := flows[fi]
			if o, ok := remaining["e:"+f.Src]; ok && "e:"+f.Src != bestKey {
				o.cap -= bestFair
				if o.cap < 0 {
					o.cap = 0
				}
			}
			if o, ok := remaining["i:"+f.Dst]; ok && "i:"+f.Dst != bestKey {
				o.cap -= bestFair
				if o.cap < 0 {
					o.cap = 0
				}
			}
		}
		delete(remaining, bestKey)
	}
	return rates
}

// SimResult reports a contention simulation.
type SimResult struct {
	// PerFlow is each flow's completion time.
	PerFlow []time.Duration
	// Makespan is the time until the last flow completes.
	Makespan time.Duration
	// AggregateRate is total bytes moved divided by makespan.
	AggregateRate Rate
}

// Simulate runs the flows to completion under max-min fair sharing,
// recomputing the allocation whenever a flow finishes (fluid model).
func (t *Topology) Simulate(flows []Flow) SimResult {
	n := len(flows)
	res := SimResult{PerFlow: make([]time.Duration, n)}
	if n == 0 {
		return res
	}
	remaining := make([]float64, n) // bits left
	active := make([]bool, n)
	totalBytes := int64(0)
	for i, f := range flows {
		remaining[i] = float64(f.Bytes) * 8
		active[i] = remaining[i] > 0
		totalBytes += f.Bytes
		if !active[i] {
			res.PerFlow[i] = 0
		}
	}
	now := 0.0 // seconds
	for {
		anyActive := false
		for i := range flows {
			if active[i] {
				anyActive = true
				break
			}
		}
		if !anyActive {
			break
		}
		rates := t.maxMinRates(flows, active)
		// Time until the next flow drains at current rates.
		next := math.Inf(1)
		for i := range flows {
			if !active[i] || rates[i] <= 0 {
				continue
			}
			tFin := remaining[i] / float64(rates[i])
			if tFin < next {
				next = tFin
			}
		}
		if math.IsInf(next, 1) {
			break // stalled: no capacity at all
		}
		now += next
		for i := range flows {
			if !active[i] {
				continue
			}
			remaining[i] -= float64(rates[i]) * next
			if remaining[i] <= 1e-6 {
				remaining[i] = 0
				active[i] = false
				res.PerFlow[i] = time.Duration(now * float64(time.Second))
			}
		}
	}
	res.Makespan = time.Duration(now * float64(time.Second))
	if now > 0 {
		res.AggregateRate = Rate(float64(totalBytes) * 8 / now)
	}
	return res
}

// FairShareDownload is a convenience for experiment E4: k clients each
// download one file of size bytes, spread round-robin over m servers
// with the given per-server uplink and per-client downlink capacities.
func FairShareDownload(k, m int, bytes int64, serverUplink, clientDownlink Rate) SimResult {
	topo := NewTopology()
	flows := make([]Flow, k)
	for s := 0; s < m; s++ {
		topo.Egress[fmt.Sprintf("server%d", s)] = serverUplink
	}
	for c := 0; c < k; c++ {
		topo.Ingress[fmt.Sprintf("client%d", c)] = clientDownlink
		flows[c] = Flow{
			Src:   fmt.Sprintf("server%d", c%m),
			Dst:   fmt.Sprintf("client%d", c),
			Bytes: bytes,
		}
	}
	return topo.Simulate(flows)
}

// BandwidthRow is one row of the paper's Table 1.
type BandwidthRow struct {
	Period    Period
	Direction Direction
	Bandwidth Rate
	SmallTime time.Duration
	LargeTime time.Duration
}

// Table1 regenerates the paper's measurement table from the schedule.
func Table1(s Schedule) []BandwidthRow {
	rows := []BandwidthRow{
		{Period: Day, Direction: ToArchive},
		{Period: Day, Direction: FromArchive},
		{Period: Evening, Direction: ToArchive},
		{Period: Evening, Direction: FromArchive},
	}
	for i := range rows {
		r := s.Rate(rows[i].Period, rows[i].Direction)
		rows[i].Bandwidth = r
		rows[i].SmallTime = TransferTime(SmallSimulationBytes, r)
		rows[i].LargeTime = TransferTime(LargeSimulationBytes, r)
	}
	return rows
}

// SortedHosts is a small helper for deterministic iteration in reports.
func SortedHosts(m map[string]Rate) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
