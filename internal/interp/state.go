package interp

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Growth policy of an array's dense box. A store outside the box grows it,
// at least doubling each dimension that grows, unless the grown box would
// hold more than max(denseMinCells, denseFactor × elements in use) cells;
// such a store goes to the sparse overflow instead. Every grow therefore
// at least doubles the cell count, so an array is copied O(log n) times
// whatever the stride of its stores, and memory stays within a constant
// factor of the nonzero elements a program holds, however far apart its
// subscripts are.
const (
	denseMinCells = 1 << 12
	denseFactor   = 8
)

// AppendElemKey appends the element-key encoding of a subscript tuple to
// b: the decimal subscripts joined by commas ("3", "-1,0"). DiffArrays
// renders elements with it, and the sparse overflow keys them by it.
func AppendElemKey(b []byte, subs []int64) []byte {
	for i, s := range subs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, s, 10)
	}
	return b
}

func elemKey(subs []int64) string {
	var buf [64]byte
	return string(AppendElemKey(buf[:0], subs))
}

// parseElemKey inverts AppendElemKey.
func parseElemKey(key string, idx []int64) []int64 {
	idx = idx[:0]
	if key == "" {
		return idx
	}
	for {
		part, rest, more := strings.Cut(key, ",")
		v, _ := strconv.ParseInt(part, 10, 64)
		idx = append(idx, v)
		if !more {
			return idx
		}
		key = rest
	}
}

// State is the mutable program state. Scalars is a plain map; arrays are
// dense boxes reached through GetArray/SetArray(N), FillBox and Cells.
// A missing scalar or element reads as zero.
type State struct {
	Scalars map[string]int64
	arrays  map[string]*array
}

// array holds one array's elements: a row-major box over lo[d] ..
// lo[d]+ext[d]-1 in each dimension, plus a sparse overflow, keyed by
// element key, for the nonzero elements outside the box or of a rank other
// than the box's. An element is in at most one of the two. lo and ext are
// replaced, never written in place, so clones share them.
type array struct {
	lo, ext []int64
	cells   []int64 // nil until the first nonzero store
	live    int     // nonzero cells
	over    map[string]int64
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Scalars: map[string]int64{}, arrays: map[string]*array{}}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	out := &State{Scalars: cloneScalars(s.Scalars), arrays: make(map[string]*array, len(s.arrays))}
	for n, a := range s.arrays {
		out.arrays[n] = a.clone()
	}
	return out
}

func cloneScalars(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (s *State) array(name string) *array {
	a := s.arrays[name]
	if a == nil {
		a = &array{}
		s.arrays[name] = a
	}
	return a
}

// SetArray sets one element of a one-dimensional array.
func (s *State) SetArray(name string, idx int64, v int64) {
	s.array(name).set([]int64{idx}, v)
}

// GetArray reads one element of a one-dimensional array (default 0).
func (s *State) GetArray(name string, idx int64) int64 {
	return s.arrays[name].get([]int64{idx})
}

// SetArrayN sets a multi-dimensional element.
func (s *State) SetArrayN(name string, idx []int64, v int64) {
	s.array(name).set(idx, v)
}

// GetArrayN reads a multi-dimensional element.
func (s *State) GetArrayN(name string, idx []int64) int64 {
	return s.arrays[name].get(idx)
}

// FillBox replaces the elements of array name with a dense box spanning
// lo[d]..hi[d] in each dimension, setting each element to f(idx) in
// row-major order. f must not retain idx.
func (s *State) FillBox(name string, lo, hi []int64, f func(idx []int64) int64) {
	a := &array{lo: slices.Clone(lo), ext: make([]int64, len(lo))}
	n := 1
	for d := range lo {
		a.ext[d] = hi[d] - lo[d] + 1
		if a.ext[d] <= 0 {
			s.arrays[name] = &array{}
			return
		}
		n *= int(a.ext[d])
	}
	a.cells = make([]int64, n)
	idx := slices.Clone(lo)
	for off := range a.cells {
		if v := f(idx); v != 0 {
			a.cells[off] = v
			a.live++
		}
		a.advance(idx)
	}
	s.arrays[name] = a
}

// Cells calls f for every nonzero element of array name, in unspecified
// order. Elements not visited read as zero. f must not retain idx.
func (s *State) Cells(name string, f func(idx []int64, v int64)) {
	s.arrays[name].each(f)
}

func (a *array) clone() *array {
	out := &array{lo: a.lo, ext: a.ext, cells: slices.Clone(a.cells), live: a.live}
	if len(a.over) > 0 {
		out.over = make(map[string]int64, len(a.over))
		for k, v := range a.over {
			out.over[k] = v
		}
	}
	return out
}

// offset returns idx's position in the box, or -1 outside it. Comparing
// the unsigned distance from lo against the extent is exact for every
// int64 subscript, because a box never wraps past MaxInt64.
func (a *array) offset(idx []int64) int {
	if a.cells == nil || len(idx) != len(a.lo) {
		return -1
	}
	off := 0
	for d, v := range idx {
		o := uint64(v - a.lo[d])
		if o >= uint64(a.ext[d]) {
			return -1
		}
		off = off*int(a.ext[d]) + int(o)
	}
	return off
}

func (a *array) get(idx []int64) int64 {
	if a == nil {
		return 0
	}
	if off := a.offset(idx); off >= 0 {
		return a.cells[off]
	}
	if len(a.over) == 0 {
		return 0
	}
	var buf [64]byte
	// Indexing with the converted bytes does not allocate the key.
	return a.over[string(AppendElemKey(buf[:0], idx))]
}

func (a *array) set(idx []int64, v int64) {
	off := a.offset(idx)
	if off < 0 && v != 0 && a.grow(idx) {
		off = a.offset(idx)
	}
	if off >= 0 {
		switch old := a.cells[off]; {
		case old == 0 && v != 0:
			a.live++
		case old != 0 && v == 0:
			a.live--
		}
		a.cells[off] = v
		return
	}
	if v == 0 {
		if len(a.over) > 0 {
			var buf [64]byte
			delete(a.over, string(AppendElemKey(buf[:0], idx)))
		}
		return
	}
	if a.over == nil {
		a.over = map[string]int64{}
	}
	a.over[elemKey(idx)] = v
}

// grow extends the box to cover idx, reporting false when the policy
// sends idx to the overflow instead (a rank other than the box's, or a
// box that would be far larger than the elements in use).
func (a *array) grow(idx []int64) bool {
	if a.cells == nil {
		a.lo, a.ext = slices.Clone(idx), make([]int64, len(idx))
		for d := range a.ext {
			a.ext[d] = 1
		}
		a.cells = make([]int64, 1)
		return true
	}
	if len(idx) != len(a.lo) {
		return false
	}
	limit := uint64(denseFactor * (a.live + len(a.over) + 1))
	if limit < denseMinCells {
		limit = denseMinCells
	}
	lo, ext, n, ok := a.cover(idx, limit)
	if !ok {
		return false
	}
	cells := make([]int64, n)
	// Copy the old box row by row (a row runs along the last dimension).
	row := slices.Clone(a.lo)
	rank := len(a.lo)
	width := 1
	if rank > 0 {
		width = int(a.ext[rank-1])
	}
	for src := 0; src < len(a.cells); src += width {
		dst := 0
		for d, v := range row {
			dst = dst*int(ext[d]) + int(v-lo[d])
		}
		copy(cells[dst:], a.cells[src:src+width])
		if rank > 0 {
			row[rank-1] += int64(width) - 1
		}
		a.advance(row)
	}
	a.lo, a.ext, a.cells = lo, ext, cells
	a.migrate()
	return true
}

// cover returns the bounds and cell count of the smallest box holding a's
// box and idx in which each dimension that grows at least doubles, toward
// idx, or false when it would exceed limit cells or leave the int64 range.
// Growing to an exact fit instead would copy the whole box on every store
// of a strided loop.
func (a *array) cover(idx []int64, limit uint64) (lo, ext []int64, n uint64, ok bool) {
	lo, ext, n = make([]int64, len(idx)), make([]int64, len(idx)), 1
	for d, v := range idx {
		l, e := a.lo[d], uint64(a.ext[d])
		hi := l + int64(e) - 1
		need := e
		switch {
		case v < l:
			need = uint64(hi-v) + 1
		case v > hi:
			need = uint64(v-l) + 1
		}
		if need != e && need < 2*e {
			need = 2 * e
		}
		if need == 0 || need > limit || n > limit/need {
			return nil, nil, 0, false
		}
		if v < l {
			if l = hi - int64(need-1); l > hi {
				return nil, nil, 0, false
			}
		} else if l+int64(need-1) < l {
			return nil, nil, 0, false
		}
		lo[d], ext[d], n = l, int64(need), n*need
	}
	return lo, ext, n, true
}

// advance steps idx to the next element of the box in row-major order.
func (a *array) advance(idx []int64) {
	for d := len(idx) - 1; d >= 0; d-- {
		idx[d]++
		if idx[d] < a.lo[d]+a.ext[d] {
			return
		}
		idx[d] = a.lo[d]
	}
}

// migrate moves overflow elements the box now covers into it.
func (a *array) migrate() {
	var idx []int64
	for k, v := range a.over {
		idx = parseElemKey(k, idx)
		if off := a.offset(idx); off >= 0 {
			a.cells[off] = v
			a.live++
			delete(a.over, k)
		}
	}
}

// each calls f for every nonzero element: the box in row-major order,
// then the overflow.
func (a *array) each(f func(idx []int64, v int64)) {
	if a == nil {
		return
	}
	if a.live > 0 {
		idx := slices.Clone(a.lo)
		for _, v := range a.cells {
			if v != 0 {
				f(idx, v)
			}
			a.advance(idx)
		}
	}
	var idx []int64
	for k, v := range a.over {
		idx = parseElemKey(k, idx)
		f(idx, v)
	}
}

func (a *array) empty() bool { return a == nil || (a.live == 0 && len(a.over) == 0) }

// equal compares two arrays treating missing elements as zero.
func (a *array) equal(b *array) bool {
	switch {
	case a == b:
		return true
	case a.empty() || b.empty():
		return a.empty() && b.empty()
	case a.live+len(a.over) != b.live+len(b.over):
		return false
	case slices.Equal(a.lo, b.lo) && slices.Equal(a.ext, b.ext):
		if !slices.Equal(a.cells, b.cells) {
			return false
		}
		for k, v := range a.over {
			if b.over[k] != v {
				return false
			}
		}
		return true
	}
	// Both hold the same number of nonzero elements, so b has no nonzero
	// element a lacks once every one of a's matches.
	eq := true
	a.each(func(idx []int64, v int64) {
		if eq && b.get(idx) != v {
			eq = false
		}
	})
	return eq
}

// ArraysEqual compares the array portions of two states, treating missing
// entries as zero.
func ArraysEqual(a, b *State) bool {
	for n, x := range a.arrays {
		if !x.equal(b.arrays[n]) {
			return false
		}
	}
	for n, y := range b.arrays {
		if _, ok := a.arrays[n]; !ok && !y.empty() {
			return false
		}
	}
	return true
}

// DiffArrays describes the first few differences between the array states,
// or "" when equal (missing entries are zero): elements in name order,
// then string order of their keys ("A[10]" before "A[9]"), truncated after
// eight. The text is built only when the states differ.
func DiffArrays(a, b *State) string {
	if ArraysEqual(a, b) {
		return ""
	}
	names := map[string]bool{}
	for n := range a.arrays {
		names[n] = true
	}
	for n := range b.arrays {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	type cellDiff struct {
		key    string
		av, bv int64
	}
	var diffs []string
	for _, n := range sorted {
		x, y := a.arrays[n], b.arrays[n]
		var cells []cellDiff
		x.each(func(idx []int64, v int64) {
			if w := y.get(idx); w != v {
				cells = append(cells, cellDiff{elemKey(idx), v, w})
			}
		})
		y.each(func(idx []int64, v int64) {
			if x.get(idx) == 0 {
				cells = append(cells, cellDiff{elemKey(idx), 0, v})
			}
		})
		sort.Slice(cells, func(i, j int) bool { return cells[i].key < cells[j].key })
		for _, c := range cells {
			diffs = append(diffs, fmt.Sprintf("%s[%s]: %d vs %d", n, c.key, c.av, c.bv))
			if len(diffs) >= 8 {
				return strings.Join(diffs, "; ") + "; ..."
			}
		}
	}
	return strings.Join(diffs, "; ")
}
