package keff

import "math/bits"

// PartnerRows is a kept selection of a track stack's sensitive pairs, for
// an evaluator that inserts shield after shield into one stack (SINO's
// repairs). It holds the stack's signal tracks in track order, one row
// each, and each row holds that signal's sensitive partners to its right
// within the pair cutoff, ascending, with each pair's last value.
// Partners are named by row, not by position: a shield insertion shifts
// positions but keeps the signals' order, so the rows outlive it, and
// only the pairs the insertion moved are evaluated again
// (KeptTotalsInto). Any other edit of the stack — a track removed, two
// swapped, a signal inserted — leaves rows that no longer describe it:
// select again (SelectTotalsInto). The zero value is empty and ready for
// use; its buffers persist across selections (Reserve sizes the rows
// ahead, and the values grow to at least twice their capacity when they
// are short).
type PartnerRows struct {
	nets []int     // each row's net id, which the selection reads
	rows []row     // one per signal track, in track order
	vals []float64 // each row's pair values, from its start, one per partner
}

// row is one signal track of the stack: its position and the terms of
// its wire, which every pass rebuilds, and its kept partners. Bit b of
// mask stands for the row b+1 after it (partners lie at most pairCutoff
// rows on), and its pairs' values are vals[start:], ascending.
type row struct {
	w      *wire
	mask   uint64
	start  int32
	pos    int32
	il, ir int16
}

// A row's partners must fit its mask: this fails to compile if the pair
// cutoff outgrows it.
const _ = uint(63 - pairCutoff)

// Reserve sizes p's row buffers for stacks of up to n signal tracks.
func (p *PartnerRows) Reserve(n int) {
	p.nets, p.rows = grow(p.nets, n)[:0], grow(p.rows, n)[:0]
}

// SelectTotalsInto selects every row's partners in the stack tr under rel
// (Relation.Partners, over the signal rows), evaluates them, and keeps the
// selection and the values in p. It writes every position's total into
// out (len(tr), zeroed here) and returns the number of pairs evaluated.
// The totals are AllTotalsInto's, bit for bit: the same pairs with the
// same operands, summed in the same order (rows ascending, each row's
// partners ascending). Every net id in tr must be below rel.Len(), and
// each net may sit on one track only, as each segment of a SINO solution
// does.
func (m *Model) SelectTotalsInto(p *PartnerRows, tr []int, shields [][2]int, rel *Relation, out []float64) int {
	p.nets = p.nets[:0]
	for _, v := range tr {
		if v != Shield {
			p.nets = append(p.nets, v)
		}
	}
	n := len(p.nets)
	p.rows = grow(p.rows, n)
	m.terms(p, tr, shields)
	// Room for every pair before the first, so that the pass does not
	// regrow the buffer row by row: at most every pair of rows, at most
	// pairCutoff a row, and at most every sensitive pair of the stack's
	// nets, which only a buffer short of the first two bounds counts.
	if most := min(n*(n-1)/2, n*pairCutoff); cap(p.vals) < most {
		degrees := 0
		for _, a := range p.nets {
			degrees += rel.Degree(a)
		}
		p.vals = grow(p.vals, min(most, degrees/2))
	}
	p.vals = p.vals[:cap(p.vals)]
	clear(out)
	var buf [pairCutoff]int
	x, last := 0, 0 // the next value's index; the last row within the cutoff of row i
	for i := range p.rows {
		ri := &p.rows[i]
		last = max(last, i)
		for last+1 < n && p.rows[last+1].pos-ri.pos <= pairCutoff {
			last++
		}
		ri.mask, ri.start = 0, int32(x)
		sum := out[ri.pos] // the row's own total, summed in a register
		for _, j := range rel.Partners(p.nets[i], p.nets, i+1, last, buf[:]) {
			rj := &p.rows[j]
			k := m.pair(int(rj.pos-ri.pos), int(ri.il), int(ri.ir), int(rj.il), int(rj.ir), ri.w, rj.w)
			ri.mask |= 1 << (j - i - 1)
			p.vals[x] = k
			x++
			sum += k
			out[rj.pos] += k
		}
		out[ri.pos] = sum
	}
	return x
}

// KeptTotalsInto writes every position's total into out (len(tr), zeroed
// here) after a shield was inserted at position at of the stack p last
// described: tr and shields are the stack with the shield in. It returns
// the pairs it evaluated and the pairs whose kept value it summed. The
// insertion pushed apart only the pairs that straddle it, by one track,
// so no pair entered the cutoff: each row drops the partners now past it,
// a suffix of the row. A pair that straddles the shield or has an
// endpoint in its InsertionZone is evaluated again; every other pair kept
// its separation and both its wires' returns, so its kept value is the
// one a fresh evaluation would give. The rows, their order and the
// accumulation are SelectTotalsInto's, so the totals are AllTotalsInto's
// on tr bit for bit. p then describes tr, ready for the next insertion.
//
// In row terms the test is one compare per pair: with the zone's rows
// lo…hi, a row left of the zone evaluates its partners from row lo on
// (those in the zone and those across the shield), a row in the zone
// evaluates all of them, and a row right of it none.
func (m *Model) KeptTotalsInto(p *PartnerRows, tr []int, shields [][2]int, at int, out []float64) (evaluated, kept int) {
	m.terms(p, tr, shields)
	n := len(p.rows)
	zlo, zhi := m.InsertionZone(shields, at)
	lo, hi := 0, -1 // rows lo … hi are the zone's
	for i := range p.rows {
		if pos := int(p.rows[i].pos); pos < zlo {
			lo = i + 1
		} else if pos > zhi {
			break
		}
		hi = i
	}
	clear(out)
	for i := range p.rows {
		ri := &p.rows[i]
		from := n // right of the zone: every pair keeps its value
		if i < lo {
			from = lo
		} else if i <= hi {
			from = 0
		}
		x := int(ri.start)
		sum := out[ri.pos] // the row's own total, summed in a register
		for rest := ri.mask; rest != 0; rest &= rest - 1 {
			j := i + 1 + bits.TrailingZeros64(rest)
			rj := &p.rows[j]
			d := int(rj.pos - ri.pos)
			if d > pairCutoff {
				ri.mask &^= rest // this partner and every one after it
				break
			}
			k := p.vals[x]
			if j >= from {
				k = m.pair(d, int(ri.il), int(ri.ir), int(rj.il), int(rj.ir), ri.w, rj.w)
				p.vals[x] = k
				evaluated++
			} else {
				kept++
			}
			x++
			sum += k
			out[rj.pos] += k
		}
		out[ri.pos] = sum
	}
	return evaluated, kept
}

// terms rebuilds each row's position, return distances and wire terms
// from the stack tr and its shield table. It panics when tr holds more or
// fewer signal tracks than p has rows: a signal went in or out since the
// selection.
func (m *Model) terms(p *PartnerRows, tr []int, shields [][2]int) {
	i := 0
	for t, v := range tr {
		if v != Shield {
			il, ir := t-shields[t][0], shields[t][1]-t
			r := &p.rows[i]
			r.w, r.pos, r.il, r.ir = m.wireTerms(il, ir), int32(t), int16(il), int16(ir)
			i++
		}
	}
	if i != len(p.rows) {
		panic("keff: kept rows do not describe the stack: a signal track went out")
	}
}

// InsertionZone returns the inclusive range of positions whose signal
// tracks changed a return path when a shield went in at position at,
// given the stack's shield table with the shield in: the signal tracks
// between the new shield's neighbouring shields (region walls included)
// that lie within backgroundReturn−1 of it, the range
// [shields[at][0]+1, shields[at][1]−1] without at itself.
//
// A wire returns through its nearest shield on each side, capped at
// backgroundReturn pitches (shieldNeighbors). Take a signal at p < at.
// Nothing left of at moved, so its left return is unchanged. Its right
// return was min(s−p, bg) before, for the nearest shield s ≥ at (a wall
// included, in the old positions), and is min(at−p, bg) after: it
// changes only if at−p < bg and no shield lies between p and at, which
// is p in [shields[at][0]+1, at−1]. A signal at p > at sat at p−1; its
// right return moved along with everything right of at (the wall too),
// and its left return went from min(p−1−l, bg), for the nearest shield
// l < at, to min(p−at, bg): it changes only if p−at < bg and no shield
// lies between at and p, which is p in [at+1, shields[at][1]−1]. A
// pair's value is a function of its separation and its two wires'
// returns, and only the pairs that straddle at changed separation, so a
// pair that neither straddles at nor has an endpoint in the zone keeps
// its value bit for bit. The zone lies inside AffectedRange.
func (m *Model) InsertionZone(shields [][2]int, at int) (lo, hi int) {
	return shields[at][0] + 1, shields[at][1] - 1
}

// grow returns s resized to n, keeping its contents. When its capacity is
// short it reallocates to at least twice that capacity, so a buffer that
// serves growing instances reallocates a logarithmic number of times.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		g := make([]T, n, max(n, 2*cap(s)))
		copy(g, s)
		return g
	}
	return s[:n]
}
