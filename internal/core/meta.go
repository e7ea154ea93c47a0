package core

import (
	"fmt"
	"strings"

	"chapelfreeride/internal/chapel"
)

// Meta is the information collected during linearization that the mapping
// algorithm needs — the right-hand side of the paper's Fig. 6:
//
//	levels                   — number of nested array levels on the access path
//	unitSize[levels]         — element size at each level (innermost last)
//	unitOffset[levels-1][..] — field offsets of the record junction between
//	                           consecutive array levels
//	position[levels-1][..]   — which field the access path selects at each
//	                           junction (second dimension collected as 1,
//	                           as the paper notes for single-path accesses)
//
// plus two implementation fields the paper keeps implicit: Lo[] (the domain
// low bound per level, to convert Chapel's 1-based indices to 0-based) and
// LeafOffset (a trailing field offset when the path ends inside a record
// after the last array level; 0 for the paper's examples).
//
// Sizes and offsets are in bytes; Words converts to 8-byte word units for
// all-real layouts.
type Meta struct {
	Levels     int
	UnitSize   []int
	UnitOffset [][]int
	Position   [][]int
	Lo         []int
	LeafOffset int
	// LeafType is the primitive type the path resolves to.
	LeafType *chapel.Type
	// InnerLen is the domain length of the innermost array level — the
	// length of the contiguous run that opt-1's strength reduction walks.
	InnerLen int
	// wordUnits records whether sizes are in 8-byte words instead of bytes.
	wordUnits bool
}

// MetaFor walks type ty along the given access path and collects the Fig. 6
// metadata. The path lists the record field chosen at each record junction;
// array levels are implicit (each array on the way contributes one level and
// consumes one run-time index). For example, for the paper's
//
//	data: [1..t] B;  B { b1: [1..n] A; b2: int };  A { a1: [1..m] real; a2: int }
//
// MetaFor(dataType, "b1", "a1") describes the access data[i].b1[j].a1[k]
// with levels=3, unitSize={sizeof B, sizeof A, 8}, unitOffset={{0, ...},
// {0, ...}}, position={{0},{0}}, exactly as the figure lists.
//
// Record chains between two array levels fold into a single junction row:
// the first record's offset table is kept and the deeper chain's offset is
// added to the selected entry. A path that ends inside records after the
// last array contributes LeafOffset instead of a junction.
func MetaFor(ty *chapel.Type, path ...string) (*Meta, error) {
	m := &Meta{}
	cur := ty
	pi := 0

	// Pending record junction between the previous array level and the next.
	var pendOffs []int
	pendSel := 0
	pendExtra := 0
	havePend := false
	flushJunction := func() {
		if !havePend {
			// Directly nested arrays: a junction with a single zero offset.
			m.UnitOffset = append(m.UnitOffset, []int{0})
			m.Position = append(m.Position, []int{0})
			return
		}
		row := append([]int(nil), pendOffs...)
		row[pendSel] += pendExtra
		m.UnitOffset = append(m.UnitOffset, row)
		m.Position = append(m.Position, []int{pendSel})
		havePend = false
		pendExtra = 0
	}

	for {
		switch cur.Kind {
		case chapel.KindArray:
			if m.Levels > 0 {
				flushJunction()
			}
			m.UnitSize = append(m.UnitSize, SizeOf(cur.Elem))
			m.Lo = append(m.Lo, cur.Lo)
			m.InnerLen = cur.Len()
			m.Levels++
			cur = cur.Elem
		case chapel.KindRecord:
			if m.Levels == 0 {
				return nil, fmt.Errorf("core: access path must start inside an array type, got %s", ty)
			}
			if pi >= len(path) {
				return nil, fmt.Errorf("core: path %v too short: reached record %s with no field selection",
					path, cur.Name)
			}
			f := cur.FieldIndex(path[pi])
			if f < 0 {
				return nil, fmt.Errorf("core: record %s has no field %q", cur.Name, path[pi])
			}
			offs := FieldOffsets(cur)
			if !havePend {
				pendOffs, pendSel, havePend = offs, f, true
			} else {
				pendExtra += offs[f]
			}
			cur = cur.Fields[f].Type
			pi++
		default: // primitive leaf
			if pi != len(path) {
				return nil, fmt.Errorf("core: path %v has %d unused component(s)", path, len(path)-pi)
			}
			if m.Levels == 0 {
				return nil, fmt.Errorf("core: access path over non-array type %s", ty)
			}
			if havePend {
				m.LeafOffset = pendOffs[pendSel] + pendExtra
			}
			m.LeafType = cur
			return m, nil
		}
	}
}

// ComputeIndex is Algorithm 3: it maps the per-level indices myIndex (given
// in each level's declared domain, e.g. Chapel's 1-based indices) to the
// flat offset of the accessed element in linearized storage.
//
// The recursion follows the paper exactly: at every level but the last the
// contribution is unitSize[i]*myIndex[i] + unitOffset[i][position[i][0]];
// the last level contributes unitSize[i]*myIndex[i].
//
// Panic-free by proof for translated plans: core.Verify bounds every offset
// the loop nest can touch (FRV010) and proves the index map total on the
// split domain (FRV011) before any worker starts, so on the per-element hot
// path these checks only guard direct misuse of the API, never a verified
// translation.
func (m *Meta) ComputeIndex(myIndex ...int) int {
	if len(myIndex) != m.Levels {
		panic(fmt.Sprintf("core: ComputeIndex got %d indices for %d levels", len(myIndex), m.Levels))
	}
	return m.computeIndex(myIndex, 0) + m.LeafOffset
}

func (m *Meta) computeIndex(myIndex []int, i int) int {
	zero := myIndex[i] - m.Lo[i]
	if zero < 0 {
		panic(fmt.Sprintf("core: index %d below domain low %d at level %d", myIndex[i], m.Lo[i], i))
	}
	if i < m.Levels-1 {
		return m.UnitSize[i]*zero + m.UnitOffset[i][m.Position[i][0]] + m.computeIndex(myIndex, i+1)
	}
	return m.UnitSize[i] * zero
}

// BaseIndex computes the offset of the first element of the innermost run
// for the given outer indices (all levels except the innermost). This is
// the opt-1 strength reduction of §IV-C/§V: "the computeIndex function is
// removed from the inner-most loop; the start point for the continuous data
// split is computed before the first iteration". Successive elements of the
// run then live at BaseIndex + k*Stride().
func (m *Meta) BaseIndex(outer ...int) int {
	if len(outer) != m.Levels-1 {
		panic(fmt.Sprintf("core: BaseIndex got %d indices for %d outer levels", len(outer), m.Levels-1))
	}
	idx := make([]int, m.Levels)
	copy(idx, outer)
	idx[m.Levels-1] = m.Lo[m.Levels-1] // first element of the inner run
	return m.ComputeIndex(idx...)
}

// Stride returns the innermost element size — the step between consecutive
// innermost elements after strength reduction.
func (m *Meta) Stride() int { return m.UnitSize[m.Levels-1] }

// Words returns a copy of the metadata with all sizes and offsets divided
// by 8, for use against a []float64 view of the linearized storage. It
// fails unless every size and offset is word-aligned and the leaf is a
// real (AllReal layouts always qualify).
func (m *Meta) Words() (*Meta, error) {
	if m.wordUnits {
		return m, nil
	}
	if m.LeafType == nil || m.LeafType.Kind != chapel.KindReal {
		return nil, fmt.Errorf("core: word view needs a real leaf, have %s", m.LeafType)
	}
	w := &Meta{
		Levels:     m.Levels,
		UnitSize:   make([]int, len(m.UnitSize)),
		UnitOffset: make([][]int, len(m.UnitOffset)),
		Position:   make([][]int, len(m.Position)),
		Lo:         append([]int(nil), m.Lo...),
		LeafType:   m.LeafType,
		InnerLen:   m.InnerLen,
		wordUnits:  true,
	}
	div := func(v int) (int, error) {
		if v%8 != 0 {
			return 0, fmt.Errorf("core: offset/size %d not word-aligned", v)
		}
		return v / 8, nil
	}
	var err error
	for i, v := range m.UnitSize {
		if w.UnitSize[i], err = div(v); err != nil {
			return nil, err
		}
	}
	for i, row := range m.UnitOffset {
		w.UnitOffset[i] = make([]int, len(row))
		for j, v := range row {
			if w.UnitOffset[i][j], err = div(v); err != nil {
				return nil, err
			}
		}
		w.Position[i] = append([]int(nil), m.Position[i]...)
	}
	if w.LeafOffset, err = div(m.LeafOffset); err != nil {
		return nil, err
	}
	return w, nil
}

// String renders the metadata in the style of the paper's Fig. 6.
func (m *Meta) String() string {
	var b strings.Builder
	unit := "bytes"
	if m.wordUnits {
		unit = "words"
	}
	fmt.Fprintf(&b, "levels = %d (%s)\n", m.Levels, unit)
	fmt.Fprintf(&b, "unitSize = %v\n", m.UnitSize)
	fmt.Fprintf(&b, "unitOffset = %v\n", m.UnitOffset)
	fmt.Fprintf(&b, "position = %v\n", m.Position)
	fmt.Fprintf(&b, "lo = %v leafOffset = %d leaf = %s", m.Lo, m.LeafOffset, m.LeafType)
	return b.String()
}
