package hw

import (
	"xoar/internal/sim"
	"xoar/internal/xtypes"
)

// NIC models a Gigabit Ethernet controller. Transmit and receive paths are
// independent resources (full duplex); each transfer occupies the wire for
// size/line-rate. A separate LAN latency constant models the propagation and
// switch delay to the directly connected test peer.
type NIC struct {
	env  *sim.Env
	name string
	addr xtypes.PCIAddr

	// LineRate is effective payload bandwidth in bytes/second. Gigabit
	// Ethernet minus framing overhead lands near 117MB/s.
	LineRate float64
	// LANLatency is one-way propagation to the directly attached peer.
	LANLatency sim.Duration

	tx *sim.Resource
	rx *sim.Resource

	initialized bool
	// PHY autonegotiation plus driver probe dominates full bring-up.
	initTime sim.Duration

	// Counters for tests and experiment output.
	TxBytes int64
	RxBytes int64
}

// NICModel is a parameter preset for a NIC generation. The zero value means
// "use the default model" (the paper testbed's Gigabit Tigon 3).
type NICModel struct {
	// Driver is the device-name prefix ("tg3" → "tg3-0").
	Driver string
	// LineRate is effective payload bandwidth in bytes/second.
	LineRate float64
	// LANLatency is one-way propagation to the directly attached peer.
	LANLatency sim.Duration
	// InitTime is the bring-up cost.
	InitTime sim.Duration
}

// NIC generations. Line rates are payload throughput after framing overhead
// (~93.5% of nominal). Faster NICs sit on lower-latency fabrics and skip the
// multi-second PHY autonegotiation of the Gigabit part.
var (
	// NICModel1G is the paper testbed's Tigon 3 Gigabit NIC.
	NICModel1G = NICModel{Driver: "tg3", LineRate: 117e6, LANLatency: 50 * sim.Microsecond,
		InitTime: 3500 * sim.Millisecond}
	// NICModel10G is an Intel 82599-class 10GbE NIC.
	NICModel10G = NICModel{Driver: "ixgbe", LineRate: 1.17e9, LANLatency: 20 * sim.Microsecond,
		InitTime: 2000 * sim.Millisecond}
)

// NewNICModel returns a NIC at addr built from a model preset.
func NewNICModel(env *sim.Env, name string, addr xtypes.PCIAddr, m NICModel) *NIC {
	if m == (NICModel{}) {
		m = NICModel1G
	}
	return &NIC{
		env:        env,
		name:       name,
		addr:       addr,
		LineRate:   m.LineRate,
		LANLatency: m.LANLatency,
		tx:         sim.NewResource(env, 1),
		rx:         sim.NewResource(env, 1),
		initTime:   m.InitTime,
	}
}

// Addr implements Device.
func (n *NIC) Addr() xtypes.PCIAddr { return n.addr }

// Class implements Device.
func (n *NIC) Class() xtypes.DeviceClass { return xtypes.DevNIC }

// Name implements Device.
func (n *NIC) Name() string { return n.name }

// InitTime implements Device.
func (n *NIC) InitTime() sim.Duration { return n.initTime }

// Reset implements Device: full reinitialization, costing InitTime.
func (n *NIC) Reset(p *sim.Proc) {
	n.initialized = false
	p.Sleep(n.initTime)
	n.initialized = true
}

// Initialized reports whether the NIC has been brought up.
func (n *NIC) Initialized() bool { return n.initialized }

// wireTime converts a payload size to wire occupancy.
func (n *NIC) wireTime(bytes int) sim.Duration {
	return sim.Duration(float64(bytes) / n.LineRate * float64(sim.Second))
}

// Transmit sends bytes out the wire, blocking for the wire time. The wire
// slot is released even if the caller is killed mid-transfer (a NetBack pump
// torn down by a microreboot).
func (n *NIC) Transmit(p *sim.Proc, bytes int) {
	n.tx.Use(p, n.wireTime(bytes))
	n.TxBytes += int64(bytes)
}

// Receive models bytes arriving from the wire, blocking for the wire time.
func (n *NIC) Receive(p *sim.Proc, bytes int) {
	n.rx.Use(p, n.wireTime(bytes))
	n.RxBytes += int64(bytes)
}
