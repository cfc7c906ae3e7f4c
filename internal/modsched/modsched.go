// Package modsched implements iterative modulo scheduling (Rau, MICRO'94)
// for the clusterized loop bodies HCA produces — the compilation phase the
// paper defers to future work (§5). Scheduling the post-processed DDG
// (with its receive primitives) on the machine's per-CN issue slots and
// shared DMA ports turns the MII lower bound Table 1 reports into an
// *achieved* initiation interval.
//
// The algorithm is the classic one: start at the MII, order operations by
// height-based priority, place each at the earliest start compatible with
// its placed predecessors, scanning II slots for a resource-legal cycle;
// on conflict, evict the blocking operations and continue with a bounded
// budget; when the budget runs out, increase the II and restart. The
// result is a kernel-only schedule (§2.2): every operation has one slot
// in the II-cycle kernel, executing predicated across overlapped
// iterations.
package modsched

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ddg"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Schedule is a complete modulo schedule of one loop body.
type Schedule struct {
	II     int
	Stages int // schedule length in stages: ceil((maxTime+1)/II)
	// Time[n] is the start cycle of node n relative to its iteration.
	Time []int
	// CN[n] is the computation node executing n (copied from the input).
	CN []int
	// Tries counts scheduling attempts (II escalations + 1).
	Tries int
}

// Slot returns the kernel slot (cycle mod II) of node n.
func (s *Schedule) Slot(n graph.NodeID) int { return s.Time[n] % s.II }

// Config tunes the scheduler.
type Config struct {
	// BudgetRatio bounds the total placements per attempt at
	// BudgetRatio*len(ops); default 8.
	BudgetRatio int
	// MaxII caps the search; default the larger of 4*critical-path
	// length + 16 and 4*MinII.
	MaxII int
}

// MinII returns the modulo-scheduling lower bound for d placed on cn over
// mc: the recurrence bound, the per-CN issue bound (a single-issue CN
// hosting k operations forces II >= k) and the DMA request bound.
func MinII(d *ddg.DDG, cn []int, mc *machine.Config) int {
	mii := d.MIIRec()
	perCN := map[int]int{}
	mem := 0
	for i := range d.Nodes {
		perCN[cn[i]]++
		if d.Nodes[i].Op.IsMem() {
			mem++
		}
	}
	for _, k := range perCN {
		if k > mii {
			mii = k
		}
	}
	if mc.DMAPorts > 0 {
		if m := (mem + mc.DMAPorts - 1) / mc.DMAPorts; m > mii {
			mii = m
		}
	}
	if mii < 1 {
		mii = 1
	}
	return mii
}

// Run modulo-schedules d (typically an HCA Result's Final DDG) given the
// per-node CN assignment cn on machine mc. It returns the first legal
// schedule found, at the smallest II the iterative search reaches. It
// checks ctx before each II attempt and returns its error, wrapped, once
// ctx is done. A trace.Recorder installed in ctx gets one span with the
// II ladder statistics (min II bound, achieved II, tries, stages).
func Run(ctx context.Context, d *ddg.DDG, cn []int, mc *machine.Config, cfg Config) (*Schedule, error) {
	_, sp := trace.Start(ctx, "modsched")
	defer sp.End()
	sp.SetStr("kernel", d.Name)
	if len(cn) != d.Len() {
		return nil, fmt.Errorf("modsched: assignment covers %d of %d nodes", len(cn), d.Len())
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("modsched: %v", err)
	}
	if cfg.BudgetRatio <= 0 {
		cfg.BudgetRatio = 8
	}
	height, err := heights(d)
	if err != nil {
		return nil, err
	}
	minII := MinII(d, cn, mc)
	sp.SetInt("min_ii", int64(minII))
	if cfg.MaxII <= 0 {
		cp, _ := d.G.CriticalPathLength()
		cfg.MaxII = max(4*cp+16, 4*minII)
	}

	order := make([]graph.NodeID, d.Len())
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	// Height-based priority: deepest remaining path first, ties by ID.
	sort.SliceStable(order, func(i, j int) bool {
		if height[order[i]] != height[order[j]] {
			return height[order[i]] > height[order[j]]
		}
		return order[i] < order[j]
	})

	tries := 0
	for ii := minII; ii <= cfg.MaxII; ii++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("modsched: stopped before II=%d: %w", ii, err)
		}
		tries++
		if s := attempt(d, cn, mc, ii, order, cfg.BudgetRatio*d.Len()); s != nil {
			s.Tries = tries
			sp.SetInt("ii", int64(s.II))
			sp.SetInt("stages", int64(s.Stages))
			sp.SetInt("tries", int64(tries))
			trace.Count(ctx, "modsched.tries", int64(tries))
			return s, nil
		}
	}
	return nil, fmt.Errorf("modsched: no schedule found up to II=%d", cfg.MaxII)
}

func heights(d *ddg.DDG) ([]int, error) {
	h, err := d.G.LongestPathTo()
	if err != nil {
		return nil, fmt.Errorf("modsched: %v", err)
	}
	return h, nil
}

// mrt is the modulo reservation table: per kernel slot, the CN issue
// slots and DMA ports in use.
type mrt struct {
	ii   int
	cnAt []graph.NodeID // [slot*numCN + cn] -> node occupying it (or -1)
	dma  []int          // [slot] -> DMA requests issued
	nCN  int
	dmaP int
}

func newMRT(ii, ncn, dmaPorts int) *mrt {
	m := &mrt{ii: ii, nCN: ncn, dmaP: dmaPorts,
		cnAt: make([]graph.NodeID, ii*ncn), dma: make([]int, ii)}
	for i := range m.cnAt {
		m.cnAt[i] = -1
	}
	return m
}

func (m *mrt) fits(slot, cn int, mem bool) bool {
	if m.cnAt[slot*m.nCN+cn] != -1 {
		return false
	}
	if mem && m.dmaP > 0 && m.dma[slot] >= m.dmaP {
		return false
	}
	return true
}

// conflictAt returns the node occupying (slot, cn), or -1.
func (m *mrt) conflictAt(slot, cn int) graph.NodeID { return m.cnAt[slot*m.nCN+cn] }

func (m *mrt) place(n graph.NodeID, slot, cn int, mem bool) {
	m.cnAt[slot*m.nCN+cn] = n
	if mem {
		m.dma[slot]++
	}
}

func (m *mrt) remove(n graph.NodeID, slot, cn int, mem bool) {
	if m.cnAt[slot*m.nCN+cn] == n {
		m.cnAt[slot*m.nCN+cn] = -1
		if mem {
			m.dma[slot]--
		}
	}
}

// attempt runs one iterative scheduling pass at a fixed II.
func attempt(d *ddg.DDG, cn []int, mc *machine.Config, ii int, priority []graph.NodeID, budget int) *Schedule {
	n := d.Len()
	time := make([]int, n)
	placed := make([]bool, n)
	lastTime := make([]int, n)
	everPlaced := make([]bool, n)
	m := newMRT(ii, mc.TotalCNs(), mc.DMAPorts)

	// Worklist seeded in priority order; evicted nodes requeue.
	queue := append([]graph.NodeID(nil), priority...)
	pos := 0
	pending := n

	for pending > 0 {
		if budget <= 0 {
			return nil
		}
		budget--
		// Pick the highest-priority unplaced node.
		for pos < len(queue) && placed[queue[pos]] {
			pos++
		}
		if pos == len(queue) {
			// Rebuild the queue from remaining unplaced nodes.
			queue = queue[:0]
			for _, nd := range priority {
				if !placed[nd] {
					queue = append(queue, nd)
				}
			}
			pos = 0
			if len(queue) == 0 {
				break
			}
		}
		nd := queue[pos]
		pos++

		// Earliest start from placed predecessors:
		// t(nd) >= t(p) + lat(p) - II*dist.
		estart := 0
		d.G.In(nd, func(e graph.Edge) {
			if !placed[e.From] {
				return
			}
			if t := time[e.From] + e.Weight - ii*e.Distance; t > estart {
				estart = t
			}
		})
		// Never reschedule at the same spot forever.
		if everPlaced[nd] && estart <= lastTime[nd] {
			estart = lastTime[nd] + 1
		}

		mem := d.Nodes[nd].Op.IsMem()
		c := cn[nd]
		slotTime := -1
		for t := estart; t < estart+ii; t++ {
			if t < 0 {
				continue
			}
			if m.fits(t%ii, c, mem) {
				slotTime = t
				break
			}
		}
		force := false
		if slotTime < 0 {
			if estart < 0 {
				estart = 0
			}
			slotTime = estart
			force = true
		}

		if force {
			// Evict whatever occupies the slot (and, for memory ops, make
			// room on the DMA by evicting the lowest-priority memory op in
			// the slot).
			slot := slotTime % ii
			if other := m.conflictAt(slot, c); other != -1 {
				m.remove(other, slot, c, d.Nodes[other].Op.IsMem())
				placed[other] = false
				pending++
			}
			if mem && m.dmaP > 0 && m.dma[slot] >= m.dmaP {
				evictDMA(d, cn, m, slot, placed, &pending, time)
			}
		}
		m.place(nd, slotTime%ii, c, mem)
		time[nd] = slotTime
		placed[nd] = true
		lastTime[nd] = slotTime
		everPlaced[nd] = true
		pending--

		// Evict placed successors whose dependence is now violated.
		d.G.Out(nd, func(e graph.Edge) {
			if !placed[e.To] || e.To == nd {
				return
			}
			if time[e.To] < slotTime+e.Weight-ii*e.Distance {
				m.remove(e.To, time[e.To]%ii, cn[e.To], d.Nodes[e.To].Op.IsMem())
				placed[e.To] = false
				pending++
			}
		})
	}

	// Final legality check (also catches self-dependences).
	maxT := 0
	for i := range time {
		if time[i] > maxT {
			maxT = time[i]
		}
	}
	s := &Schedule{II: ii, Stages: maxT/ii + 1, Time: time, CN: append([]int(nil), cn...)}
	if err := Verify(d, s, mc); err != nil {
		return nil
	}
	return s
}

// evictDMA removes the latest-scheduled memory operation occupying the
// given DMA slot.
func evictDMA(d *ddg.DDG, cn []int, m *mrt, slot int, placed []bool, pending *int, time []int) {
	victim := graph.NodeID(-1)
	for c := 0; c < m.nCN; c++ {
		if nd := m.cnAt[slot*m.nCN+c]; nd != -1 && d.Nodes[nd].Op.IsMem() {
			if victim == -1 || time[nd] > time[victim] {
				victim = nd
			}
		}
	}
	if victim != -1 {
		m.remove(victim, slot, cn[victim], true)
		placed[victim] = false
		*pending++
	}
}

// Verify checks a schedule end to end: every dependence satisfied under
// the modulo timing model, one operation per CN per kernel slot, and the
// DMA port limit respected in every slot.
func Verify(d *ddg.DDG, s *Schedule, mc *machine.Config) error {
	if s.II < 1 {
		return fmt.Errorf("modsched: II %d < 1", s.II)
	}
	var err error
	d.G.Edges(func(e graph.Edge) {
		if err != nil {
			return
		}
		if s.Time[e.To] < s.Time[e.From]+e.Weight-s.II*e.Distance {
			err = fmt.Errorf("modsched: dependence %d→%d violated: t=%d < %d+%d-%d*%d",
				e.From, e.To, s.Time[e.To], s.Time[e.From], e.Weight, s.II, e.Distance)
		}
	})
	if err != nil {
		return err
	}
	seen := map[[2]int]graph.NodeID{}
	dma := make([]int, s.II)
	for i := range d.Nodes {
		if s.Time[i] < 0 {
			return fmt.Errorf("modsched: node %d unscheduled", i)
		}
		key := [2]int{s.Time[i] % s.II, s.CN[i]}
		if prev, ok := seen[key]; ok {
			return fmt.Errorf("modsched: nodes %d and %d share CN %d slot %d", prev, i, key[1], key[0])
		}
		seen[key] = graph.NodeID(i)
		if d.Nodes[i].Op.IsMem() {
			dma[s.Time[i]%s.II]++
		}
	}
	if mc.DMAPorts > 0 {
		for slot, k := range dma {
			if k > mc.DMAPorts {
				return fmt.Errorf("modsched: %d DMA requests in slot %d > %d ports", k, slot, mc.DMAPorts)
			}
		}
	}
	return nil
}
