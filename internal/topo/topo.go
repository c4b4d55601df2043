// Package topo describes and builds the simulated cluster: nodes with one
// GX+ bus each, HCAs per node, ports per HCA, and the rank-to-node mapping.
//
// A "rail" in the multi-rail design is one QP on one port of one HCA; the
// number of rails between a process pair is HCAsPerNode × PortsPerHCA ×
// QPsPerPort (paper §3.1: "multiple queue pairs per port, multiple ports,
// multiple HCAs").
package topo

import (
	"fmt"
	"math"
	"strconv"

	"ib12x/internal/core"
	"ib12x/internal/fabric"
	"ib12x/internal/gx"
	"ib12x/internal/hca"
	"ib12x/internal/model"
)

// Spec declares a cluster shape. The paper's testbed is 2 nodes × 4 procs,
// one HCA, one port (§4.1); QPsPerPort is the experimental variable.
type Spec struct {
	Nodes        int
	ProcsPerNode int
	HCAsPerNode  int
	PortsPerHCA  int
	QPsPerPort   int

	// NodesPerSwitch groups nodes under the leaf switches of a fat tree
	// (0 = the paper's single switch). TrunkRate is the bandwidth of every
	// inter-switch lane in bytes/s (0 = the link's raw rate).
	NodesPerSwitch int
	TrunkRate      float64

	// Tiers picks the fat tree's depth. 2 (or 0 with NodesPerSwitch > 0)
	// hangs every leaf under SpinesPerPod spines (0 = 1: a single trunk
	// pair per leaf); 3 groups leaves SpinesPerPod to a pod with
	// SpinesPerPod spines per pod and SpinesPerPod cores joining the pods.
	Tiers        int
	SpinesPerPod int

	// Dragonfly, when Groups > 0, selects the dragonfly fabric instead
	// (mutually exclusive with Tiers = 3). NodesPerSwitch doubles as
	// nodes-per-router (0 = 1).
	Dragonfly Dragonfly

	// Routing picks static D-mod-K vs adaptive selection among parallel
	// trunk lanes (moot where every route has one candidate).
	Routing fabric.Routing
}

// Dragonfly shapes the dragonfly fabric: Groups of RoutersPerGroup routers
// (all-to-all locally), GlobalLinks parallel lanes per ordered group pair.
// The zero value means "not a dragonfly".
type Dragonfly struct {
	Groups          int
	RoutersPerGroup int
	GlobalLinks     int
}

// routeSeed fixes the deterministic tie-break seed of path selection; runs
// replay bit-identically because it never varies.
const routeSeed = 0x12b51ab12b51ab

// nodesPerRouter reports the dragonfly leaf radix (NodesPerSwitch, min 1).
func (s Spec) nodesPerRouter() int { return max(s.NodesPerSwitch, 1) }

// tiers reports the fat tree's depth: 3, 2 (also Tiers: 0 with
// NodesPerSwitch set), or 0 for the single switch.
func (s Spec) tiers() int {
	if s.Tiers == 0 && s.NodesPerSwitch > 0 {
		return 2
	}
	return s.Tiers
}

// Validate reports whether the spec is well-formed.
func (s Spec) Validate() error {
	switch {
	case s.Nodes < 1:
		return fmt.Errorf("topo: Nodes = %d, need ≥ 1", s.Nodes)
	case s.ProcsPerNode < 1:
		return fmt.Errorf("topo: ProcsPerNode = %d, need ≥ 1", s.ProcsPerNode)
	case s.HCAsPerNode < 1:
		return fmt.Errorf("topo: HCAsPerNode = %d, need ≥ 1", s.HCAsPerNode)
	case s.PortsPerHCA < 1 || s.PortsPerHCA > 2:
		return fmt.Errorf("topo: PortsPerHCA = %d, the IBM 12x HCA is dual-port (1 or 2)", s.PortsPerHCA)
	case s.QPsPerPort < 1:
		return fmt.Errorf("topo: QPsPerPort = %d, need ≥ 1", s.QPsPerPort)
	case s.Rails() > core.MaxRails:
		return fmt.Errorf("topo: %d HCAs × %d ports × %d QPs = %d rails, the rail health mask tracks at most %d",
			s.HCAsPerNode, s.PortsPerHCA, s.QPsPerPort, s.Rails(), core.MaxRails)
	}
	switch {
	case s.Tiers != 0 && s.Tiers != 2 && s.Tiers != 3:
		return fmt.Errorf("topo: Tiers = %d, need 0, 2, or 3", s.Tiers)
	case s.NodesPerSwitch < 0:
		return fmt.Errorf("topo: NodesPerSwitch = %d, need ≥ 0 (0 = one switch)", s.NodesPerSwitch)
	case s.Dragonfly.Groups < 0:
		return fmt.Errorf("topo: Dragonfly.Groups = %d, need ≥ 0 (0 = no dragonfly)", s.Dragonfly.Groups)
	case s.Routing != fabric.RouteStatic && s.Routing != fabric.RouteAdaptive:
		return fmt.Errorf("topo: Routing = %d, not a fabric.Routing", int(s.Routing))
	}
	if s.TrunkRate < 0 || math.IsNaN(s.TrunkRate) || math.IsInf(s.TrunkRate, 0) {
		return fmt.Errorf("topo: TrunkRate = %g, need a finite rate ≥ 0 (0 = the link rate)", s.TrunkRate)
	}
	if s.Dragonfly.Groups > 0 {
		d := s.Dragonfly
		switch {
		case s.Tiers == 3:
			return fmt.Errorf("topo: Dragonfly and Tiers = 3 are mutually exclusive")
		case d.RoutersPerGroup < 1:
			return fmt.Errorf("topo: Dragonfly.RoutersPerGroup = %d, need ≥ 1", d.RoutersPerGroup)
		case d.GlobalLinks < 1 && d.Groups > 1:
			return fmt.Errorf("topo: Dragonfly.GlobalLinks = %d, need ≥ 1", d.GlobalLinks)
		}
		if room := d.Groups * d.RoutersPerGroup * s.nodesPerRouter(); s.Nodes > room {
			return fmt.Errorf("topo: %d nodes exceed dragonfly capacity %d", s.Nodes, room)
		}
	} else if s.Tiers != 0 {
		switch {
		case s.NodesPerSwitch < 1:
			return fmt.Errorf("topo: Tiers = %d needs NodesPerSwitch ≥ 1", s.Tiers)
		case s.Tiers == 3 && s.SpinesPerPod < 1:
			return fmt.Errorf("topo: Tiers = 3 needs SpinesPerPod ≥ 1")
		}
	}
	if s.SpinesPerPod < 0 {
		return fmt.Errorf("topo: SpinesPerPod = %d, need ≥ 0", s.SpinesPerPod)
	}
	return nil
}

// Size reports the total number of ranks.
func (s Spec) Size() int { return s.Nodes * s.ProcsPerNode }

// Rails reports the number of rails between any inter-node process pair.
func (s Spec) Rails() int { return s.HCAsPerNode * s.PortsPerHCA * s.QPsPerPort }

// Node is one Power6 node: a GX+ bus shared by its HCAs.
type Node struct {
	ID   int
	Bus  *gx.Bus
	HCAs []*hca.HCA

	ports []*hca.Port // HCAs' ports flattened once, at Build
}

// Ports returns the node's ports flattened across HCAs, in (hca, port) order.
// The slice is shared by every caller and must not be modified.
func (n *Node) Ports() []*hca.Port { return n.ports }

// Cluster is a built topology.
type Cluster struct {
	Spec  Spec
	Model *model.Params
	Net   *fabric.Net
	Nodes []*Node
}

// Build constructs the hardware for a spec. It panics on an invalid spec;
// callers that take user input should Validate first.
func Build(spec Spec, m *model.Params) *Cluster {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	trunk := spec.TrunkRate
	if trunk == 0 {
		trunk = m.LinkRawRate
	}
	net := fabric.NewSingleSwitch(m.WireLatency)
	switch {
	case spec.Dragonfly.Groups > 0:
		d := spec.Dragonfly
		net = fabric.NewDragonfly(m.WireLatency, d.Groups, d.RoutersPerGroup,
			spec.nodesPerRouter(), max(d.GlobalLinks, 1), trunk, spec.Routing, routeSeed)
	case spec.tiers() == 3:
		net = fabric.NewThreeTier(m.WireLatency, spec.Nodes, spec.NodesPerSwitch,
			spec.SpinesPerPod, trunk, spec.Routing, routeSeed)
	case spec.tiers() == 2:
		net = fabric.NewTwoLevel(m.WireLatency, spec.Nodes, spec.NodesPerSwitch,
			max(spec.SpinesPerPod, 1), trunk, spec.Routing, routeSeed)
	}
	c := &Cluster{Spec: spec, Model: m, Net: net, Nodes: make([]*Node, spec.Nodes)}
	var first *hca.Port // every port carves pipeline states from its slab
	for i := range c.Nodes {
		n := &Node{ID: i, Bus: gx.New(m.GXRate), HCAs: make([]*hca.HCA, spec.HCAsPerNode)}
		n.ports = make([]*hca.Port, 0, spec.HCAsPerNode*spec.PortsPerHCA)
		for h := range n.HCAs {
			hc := hca.New("n"+strconv.Itoa(i)+".hca"+strconv.Itoa(h), spec.PortsPerHCA, n.Bus, m, c.Net)
			for _, port := range hc.Ports {
				port.Node = i
				if first == nil {
					first = port
				}
				port.ShareStates(first)
			}
			n.HCAs[h] = hc
			n.ports = append(n.ports, hc.Ports...)
		}
		c.Nodes[i] = n
	}
	return c
}

// Size reports the total number of ranks.
func (c *Cluster) Size() int { return c.Spec.Size() }

// NodeOf maps a rank to its node index (block distribution, as mpirun -ppn
// would place ranks on the paper's testbed).
func (c *Cluster) NodeOf(rank int) int { return rank / c.Spec.ProcsPerNode }

// SameNode reports whether two ranks share a node (and hence communicate
// over the shared-memory channel rather than the HCA).
func (c *Cluster) SameNode(a, b int) bool { return c.NodeOf(a) == c.NodeOf(b) }

// PortsOf returns the ports of a rank's node.
func (c *Cluster) PortsOf(rank int) []*hca.Port { return c.Nodes[c.NodeOf(rank)].Ports() }
