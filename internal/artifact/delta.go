package artifact

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// Move re-places one existing net's pins.
type Move struct {
	ID   int
	Pins []netlist.Pin
}

// Delta is an ECO netlist edit set: nets added, removed, or with moved
// pins. Apply produces the edited netlist; the routing layer then derives
// the invalidated tile set itself by diffing against the warm artifact's
// snapshot, so a mis-stated delta can cost work but never correctness.
type Delta struct {
	Add    []netlist.Net
	Remove []int
	Move   []Move
}

// Apply returns the edited netlist. Removed nets collapse to an inert
// single-pin stub at their driver rather than vanishing: netlist IDs must
// stay contiguous (every downstream index is positional), and a one-pin
// net with zero pin spread routes to nothing and couples with nothing.
// Added nets append with the next contiguous IDs. The base netlist is
// never modified.
func (d *Delta) Apply(base *netlist.Netlist) (*netlist.Netlist, error) {
	if base == nil {
		return nil, fmt.Errorf("artifact: delta applied to nil netlist")
	}
	out := &netlist.Netlist{
		Nets:        make([]netlist.Net, len(base.Nets)),
		Sensitivity: base.Sensitivity,
	}
	copy(out.Nets, base.Nets)

	edited := make(map[int]string, len(d.Remove)+len(d.Move))
	claim := func(id int, op string) error {
		if id < 0 || id >= len(base.Nets) {
			return fmt.Errorf("artifact: delta %s of net %d: no such net (have %d)", op, id, len(base.Nets))
		}
		if prev, dup := edited[id]; dup {
			return fmt.Errorf("artifact: delta edits net %d twice (%s then %s)", id, prev, op)
		}
		edited[id] = op
		return nil
	}
	for _, id := range d.Remove {
		if err := claim(id, "remove"); err != nil {
			return nil, err
		}
		out.Nets[id].Pins = base.Nets[id].Pins[:1:1]
	}
	for _, m := range d.Move {
		if err := claim(m.ID, "move"); err != nil {
			return nil, err
		}
		if len(m.Pins) == 0 {
			return nil, fmt.Errorf("artifact: delta move of net %d has no pins", m.ID)
		}
		out.Nets[m.ID].Pins = m.Pins
	}
	for i, n := range d.Add {
		if len(n.Pins) == 0 {
			return nil, fmt.Errorf("artifact: delta add %q has no pins", n.Name)
		}
		n.ID = len(base.Nets) + i
		out.Nets = append(out.Nets, n)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// deltaJSON is the wire shape of a delta file: micron pin coordinates as
// [x, y] pairs.
//
//	{"remove": [3],
//	 "move":   [{"id": 7, "pins": [[120.0, 80.0], [440.0, 360.0]]}],
//	 "add":    [{"name": "eco0", "pins": [[60.0, 60.0], [220.0, 300.0]]}]}
type deltaJSON struct {
	Remove []int `json:"remove"`
	Move   []struct {
		ID   int         `json:"id"`
		Pins [][]float64 `json:"pins"`
	} `json:"move"`
	Add []struct {
		Name string      `json:"name"`
		Pins [][]float64 `json:"pins"`
	} `json:"add"`
}

func parsePins(pins [][]float64, what string) ([]netlist.Pin, error) {
	if len(pins) == 0 {
		return nil, fmt.Errorf("artifact: delta %s has no pins", what)
	}
	out := make([]netlist.Pin, len(pins))
	for i, p := range pins {
		if len(p) != 2 {
			return nil, fmt.Errorf("artifact: delta %s pin %d: want [x, y], got %d coordinates", what, i, len(p))
		}
		out[i] = netlist.Pin{Loc: geom.MicronPoint{X: geom.Micron(p[0]), Y: geom.Micron(p[1])}}
	}
	return out, nil
}

// ParseDelta decodes a delta file (see deltaJSON for the shape). Entries
// are normalized into a deterministic order — removes ascending, moves by
// ID, adds by name — so the derived netlist never depends on file-entry
// ordering. Adds must be normalized too, not just moves and removes:
// Apply assigns appended net IDs positionally, so an unsorted add list
// would let two permutations of one delta file produce different net IDs
// and therefore different route bytes. Duplicate add names are rejected —
// with them, "sorted by name" would leave the relative order of the
// duplicates (and thus their IDs) up to the file again.
func ParseDelta(data []byte) (Delta, error) {
	var raw deltaJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return Delta{}, fmt.Errorf("artifact: parsing delta: %w", err)
	}
	var d Delta
	d.Remove = append(d.Remove, raw.Remove...)
	sort.Ints(d.Remove)
	for _, m := range raw.Move {
		pins, err := parsePins(m.Pins, fmt.Sprintf("move of net %d", m.ID))
		if err != nil {
			return Delta{}, err
		}
		d.Move = append(d.Move, Move{ID: m.ID, Pins: pins})
	}
	sort.Slice(d.Move, func(a, b int) bool { return d.Move[a].ID < d.Move[b].ID })
	for _, a := range raw.Add {
		pins, err := parsePins(a.Pins, fmt.Sprintf("add %q", a.Name))
		if err != nil {
			return Delta{}, err
		}
		d.Add = append(d.Add, netlist.Net{Name: a.Name, Pins: pins})
	}
	sort.Slice(d.Add, func(a, b int) bool { return d.Add[a].Name < d.Add[b].Name })
	for i := 1; i < len(d.Add); i++ {
		if d.Add[i].Name == d.Add[i-1].Name {
			return Delta{}, fmt.Errorf("artifact: delta adds %q twice", d.Add[i].Name)
		}
	}
	return d, nil
}
