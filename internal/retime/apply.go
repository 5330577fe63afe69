package retime

import (
	"sort"

	"glitchsim/netlist"
)

// Apply materializes the retimed netlist: combinational cells are copied,
// every connection receives w + r(to) − r(from) registers, and registers
// on the same driver pin are shared as a single DFF chain tapped at the
// required depths. Primary inputs/outputs and their bus names are
// preserved; internal bus names are dropped (their nets have no unique
// position after retiming).
func (g *Graph) Apply(r []int, name string) *netlist.Netlist {
	if r == nil {
		r = make([]int, g.V)
	}
	if len(r) != g.V {
		panic("retime: retiming vector has wrong length")
	}
	if r[g.Host] != 0 {
		panic("retime: retiming must be normalized to r[host] = 0")
	}
	if name == "" {
		name = g.n.Name + "_rt"
	}
	b := netlist.NewBuilder(name)

	// Primary inputs, preserving names and buses.
	newPI := make([]netlist.NetID, len(g.n.PIs))
	for i, id := range g.n.PIs {
		newPI[i] = b.Input(g.n.Net(id).Name)
	}
	piBus := map[netlist.NetID]int{}
	for i, id := range g.n.PIs {
		piBus[id] = i
	}
	for busName, ids := range g.n.Buses {
		allPI := len(ids) > 0
		bus := make([]netlist.NetID, len(ids))
		for i, id := range ids {
			idx, ok := piBus[id]
			if !ok {
				allPI = false
				break
			}
			bus[i] = newPI[idx]
		}
		if allPI {
			b.NameBus(busName, bus)
		}
	}

	// Clone combinational cells with placeholder inputs (rewired below
	// once every driver net exists); this tolerates arbitrary sequential
	// cycles.
	placeholder := b.Const(0)
	// One input buffer serves every cell: AddCell copies it.
	var ins []netlist.NetID
	newOut := make([][]netlist.NetID, g.V) // vertex -> new output nets
	newCellID := make([]netlist.CellID, g.V)
	for v, cid := range g.cellOf {
		if cid == netlist.NoCell {
			continue
		}
		c := g.n.Cell(cid)
		for len(ins) < len(c.In) {
			ins = append(ins, placeholder)
		}
		newCellID[v] = netlist.CellID(b.NumCells())
		newOut[v] = b.AddCell(c.Type, c.Name, ins[:len(c.In)]...)
	}

	// Register chains per driver pin, built lazily to the maximum depth
	// any sink requires: chains[v][pin][k] is the pin's signal delayed
	// by k registers. The host's output pins are the primary inputs.
	newOut[g.Host] = newPI
	chains := make([][][]netlist.NetID, g.V)
	tap := func(v, pin, depth int) netlist.NetID {
		if chains[v] == nil {
			chains[v] = make([][]netlist.NetID, len(newOut[v]))
		}
		chain := chains[v][pin]
		if chain == nil {
			chain = append(make([]netlist.NetID, 0, depth+1), newOut[v][pin])
		}
		for len(chain) <= depth {
			chain = append(chain, b.DFF(chain[len(chain)-1]))
		}
		chains[v][pin] = chain
		return chain[depth]
	}

	// Wire every edge.
	newPO := make([]netlist.NetID, len(g.n.POs))
	for j := range newPO {
		newPO[j] = netlist.NoNet
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		w := g.wr(e, r)
		src := tap(e.From, e.FromPin, w)
		if e.ToPO >= 0 {
			newPO[e.ToPO] = src
			continue
		}
		b.Rewire(newCellID[g.vertexOf[e.ToCell]], e.ToPort, src)
	}

	// Primary outputs, in the exact original order so simulation vectors
	// stay comparable.
	for j, id := range newPO {
		if id == netlist.NoNet {
			panic("retime: primary output " + g.n.Net(g.n.POs[j]).Name + " was never wired")
		}
		b.Output("", id)
	}

	// Recreate output bus names: a bus whose nets are all primary
	// outputs maps to the corresponding retimed output nets.
	poIndex := map[netlist.NetID][]int{}
	for j, id := range g.n.POs {
		poIndex[id] = append(poIndex[id], j)
	}
	busNames := make([]string, 0, len(g.n.Buses))
	for busName := range g.n.Buses {
		busNames = append(busNames, busName)
	}
	sort.Strings(busNames)
	for _, busName := range busNames {
		ids := g.n.Buses[busName]
		ok := len(ids) > 0
		bus := make([]netlist.NetID, 0, len(ids))
		used := map[netlist.NetID]int{}
		for _, id := range ids {
			list := poIndex[id]
			if used[id] >= len(list) {
				ok = false
				break
			}
			bus = append(bus, newPO[list[used[id]]])
			used[id]++
		}
		if ok {
			b.NameBus(busName, bus)
		}
	}

	return b.MustBuild()
}
