package route

import (
	"math"
	"math/bits"
	"slices"
)

// order returns the item's position in the pop order as a 128-bit number,
// hi then lo, that ascends as items pop: hi maps the weight's IEEE bits so
// that a larger weight gives a smaller number (-0 maps like +0, as == treats
// them), and lo is the tie-break, net then packed edge. Two items with
// equal numbers are the same edge at the same weight. On keys that are not
// NaN this is the order the drain has always popped in: larger weight
// first, then lower net, then lower packed edge. validateNets rejects NaN
// rates and the drain-state decoder non-finite inputs, so no weight the
// router computes from them is NaN.
func (it item) order() (hi, lo uint64) {
	w := it.key
	if w == 0 {
		w = 0
	}
	b := math.Float64bits(w)
	// A non-negative weight flips every bit but the sign; a negative one
	// keeps its bits, so it sorts after every non-negative one.
	hi = b ^ (^uint64(int64(b)>>63) >> 1)
	return hi, uint64(uint32(it.net))<<32 | uint64(uint32(it.edge))
}

const (
	// digitBits is the width of the digits buckets split orders on; it
	// divides 64, so no digit straddles hi and lo.
	digitBits = 4

	// numBuckets is bucket 0 plus one bucket per (digit, digit value).
	numBuckets = 1 + 128/digitBits<<digitBits

	// top is the bucket init puts the seeded items in, unsorted.
	top = numBuckets - 1

	// chunkLen is the item count of one queue chunk.
	chunkLen = 32

	// scanMax is the most items a one-chunk bucket holds for pop to find
	// its first by a scan instead of moving the rest down.
	scanMax = 16
)

// radixQueue is a monotone radix queue (Ahuja, Mehlhorn, Orlin and
// Tarjan, JACM 1990) over items, popping them in ascending order: the
// drain's max-weight-first order with the net-then-edge tie-break. It is
// monotone: an item pushed must not sort before the last item popped. A
// drain re-pushes only the item it just popped, at a strictly lower
// weight, so it keeps that rule, and the pop sequence is the one any
// priority queue under the same total order gives.
//
// Buckets are relative to a base order no later than any item held.
// Bucket 0 holds the items equal to the base; an item after it goes to
// the bucket of the highest digit in which it differs from the base and
// its value of that digit, so a lower bucket holds only earlier items. A
// pop takes the lowest non-empty bucket. When that is a few items in one
// chunk, pop scans them for the first; otherwise it makes their first the
// base and moves every other item to a lower bucket, so an item moves at
// most 128/digitBits times and in practice a few.
//
// Buckets are stacks of fixed-size chunks. The queue starts on the
// caller's seeded slice, carved into chunks, and a chunk emptied by a pop
// or a move goes on a free list the next bucket that fills takes from.
// Live items never exceed the seeded count, so the chunks in use never
// exceed the seeded slice's by more than one partly filled chunk per
// non-empty bucket: that bounds the spare chunks a drain allocates.
//
// One queue serves seed after seed (a workspace's, lent to drain after
// drain): init keeps the bucket array, the chunk index and every chunk
// the queue allocated, and drops the chunks it carved, which alias the
// caller's array and go back to it. The items a queue pops never depend
// on which chunks it holds, only on item.order.
type radixQueue struct {
	baseHi, baseLo uint64
	n              int // live items

	buckets  [numBuckets]bucket
	nonEmpty [(numBuckets + 63) / 64]uint64 // bit b set when bucket b holds items

	chunks []*[chunkLen]item // every chunk the queue holds, by id
	next   []int32           // per chunk: the next chunk of its bucket or of the free list, -1 at the end
	free   int32             // head of the free list, -1 when empty

	// carved counts the chunks init carved from the seed, ids 0 to
	// carved-1; every later id is a chunk the queue allocated. spare holds
	// the allocated chunks no id holds, which the next chunk taken comes
	// from. A carved chunk never enters spare: it aliases the caller's
	// array, which the router reuses once the drain is done.
	carved int32
	spare  []*[chunkLen]item
}

// bucket is a stack of chunks: head is partly filled (fill items), every
// chunk after it full.
type bucket struct {
	head int32 // -1 when the bucket is empty
	fill int32
}

// init makes the queue hold exactly the items of seed, and takes over its
// backing array until the next init. Every item starts in the top bucket,
// unsorted, which the first pop sorts out, so pushes must follow a pop.
// The chunks the queue allocated for an earlier seed become spares.
func (q *radixQueue) init(seed []item) {
	q.spare = append(q.spare, q.chunks[q.carved:]...)
	full := len(seed) / chunkLen
	q.chunks, q.next = slices.Grow(q.chunks[:0], full+1), slices.Grow(q.next[:0], full+1)
	q.baseHi, q.baseLo, q.n, q.free = 0, 0, len(seed), -1
	for i := range q.buckets {
		q.buckets[i] = bucket{head: -1}
	}
	clear(q.nonEmpty[:])
	bk := &q.buckets[top]
	for k := 0; k < full; k++ {
		q.link(bk, (*[chunkLen]item)(seed[k*chunkLen:(k+1)*chunkLen]), chunkLen)
	}
	q.carved = int32(full)
	if rest := seed[full*chunkLen:]; len(rest) > 0 {
		var c *[chunkLen]item
		if cap(rest) >= chunkLen {
			c = (*[chunkLen]item)(rest[:chunkLen])
			q.carved++
		} else {
			c = q.spareChunk()
			copy(c[:], rest)
		}
		q.link(bk, c, int32(len(rest)))
	}
	if bk.head >= 0 {
		q.nonEmpty[top/64] |= 1 << (top % 64)
	}
}

// spareChunk returns a spare chunk, or a new one when there is none.
func (q *radixQueue) spareChunk() *[chunkLen]item {
	n := len(q.spare)
	if n == 0 {
		return new([chunkLen]item)
	}
	c := q.spare[n-1]
	q.spare = q.spare[:n-1]
	return c
}

// link puts chunk c, holding fill items, on top of bucket bk.
func (q *radixQueue) link(bk *bucket, c *[chunkLen]item, fill int32) {
	q.chunks = append(q.chunks, c)
	q.next = append(q.next, bk.head)
	bk.head, bk.fill = int32(len(q.chunks)-1), fill
}

func (q *radixQueue) len() int { return q.n }

// push adds it, which must not sort before the last pop.
func (q *radixQueue) push(it item) {
	hi, lo := it.order()
	q.add(it, hi, lo)
	q.n++
}

// add files it, whose order is (hi, lo), in its bucket under the base.
func (q *radixQueue) add(it item, hi, lo uint64) {
	b := 0
	if d := hi ^ q.baseHi; d != 0 {
		sh := (bits.Len64(d) - 1) &^ (digitBits - 1)
		b = 1 + (64+sh)/digitBits<<digitBits + int(hi>>sh)&(1<<digitBits-1)
	} else if d := lo ^ q.baseLo; d != 0 {
		sh := (bits.Len64(d) - 1) &^ (digitBits - 1)
		b = 1 + sh/digitBits<<digitBits + int(lo>>sh)&(1<<digitBits-1)
	}
	bk := &q.buckets[b]
	if bk.head < 0 || bk.fill == chunkLen {
		c := q.free
		if c < 0 {
			q.chunks = append(q.chunks, q.spareChunk())
			q.next = append(q.next, -1)
			c = int32(len(q.chunks) - 1)
		} else {
			q.free = q.next[c]
		}
		q.next[c] = bk.head
		bk.head, bk.fill = c, 0
		q.nonEmpty[b/64] |= 1 << (b % 64)
	}
	q.chunks[bk.head][bk.fill] = it
	bk.fill++
}

// pop removes and returns the first item in order. The queue must not be
// empty.
func (q *radixQueue) pop() item {
	b := q.lowest()
	bk := &q.buckets[b]
	q.n--
	if b == 0 || b != top && bk.fill <= scanMax && q.next[bk.head] < 0 {
		// Items equal to the base are all first; a small bucket's first
		// is found by a scan, and the base stays before what is left.
		c := q.chunks[bk.head]
		m := int32(0)
		if b != 0 {
			mh, ml := c[0].order()
			for i := int32(1); i < bk.fill; i++ {
				if h, l := c[i].order(); h < mh || h == mh && l < ml {
					m, mh, ml = i, h, l
				}
			}
		}
		it := c[m]
		bk.fill--
		c[m] = c[bk.fill]
		if bk.fill == 0 {
			h := bk.head
			bk.head, bk.fill = q.next[h], chunkLen
			q.release(h)
			if bk.head < 0 {
				q.nonEmpty[b/64] &^= 1 << (b % 64)
			}
		}
		return it
	}

	// Make the bucket's first item the base and move every other item to
	// a lower bucket, freeing each chunk once read.
	hi, lo := ^uint64(0), ^uint64(0)
	for c, n := bk.head, bk.fill; c >= 0; c, n = q.next[c], chunkLen {
		for _, it := range q.chunks[c][:n] {
			if h, l := it.order(); h < hi || h == hi && l < lo {
				hi, lo = h, l
			}
		}
	}
	q.baseHi, q.baseLo = hi, lo
	c, n := bk.head, bk.fill
	bk.head = -1
	q.nonEmpty[b/64] &^= 1 << (b % 64)
	var first item
	found := false
	for c >= 0 {
		for _, it := range q.chunks[c][:n] {
			h, l := it.order()
			if !found && h == hi && l == lo {
				first, found = it, true
				continue
			}
			q.add(it, h, l)
		}
		nc := q.next[c]
		q.release(c)
		c, n = nc, chunkLen
	}
	return first
}

// release puts chunk c on the free list.
func (q *radixQueue) release(c int32) {
	q.next[c] = q.free
	q.free = c
}

// lowest returns the lowest non-empty bucket.
func (q *radixQueue) lowest() int {
	for w, m := range q.nonEmpty {
		if m != 0 {
			return w*64 + bits.TrailingZeros64(m)
		}
	}
	panic("route: pop from an empty queue")
}
