package experiments

import (
	"fmt"

	"xoar/internal/boot"
	"xoar/internal/guest"
	"xoar/internal/hw"
	"xoar/internal/netdrv"
	"xoar/internal/sim"
)

// --- Figure 6.1/6.2-style saturation sweep across NIC generations -----------

// Saturation reruns the wget-to-/dev/null transfer on both profiles across
// NIC generations. The question it answers is the one the paper's Figures
// 6.1/6.2 answer for 1G: does pushing the data path out of dom0 into a
// NetBack shard cost throughput once the wire stops being the bottleneck?
// With batched ring transfers the shard overhead stays within noise at 10G
// and beyond.
//
//xoarlint:allow(unused) backs the gated BenchmarkDataPath_Saturation10G; ROADMAP item 3 gives it an xoarbench id
func Saturation(scale Scale, models []hw.NICModel) (Table, error) {
	t := Table{ID: "fig6.1-sat", Title: "Bulk transfer saturation across NIC generations (MB/s)"}
	if len(models) == 0 {
		models = []hw.NICModel{hw.NICModel1G, hw.NICModel10G}
	}
	bytes := int64(float64(512<<20) * float64(clampScale(scale)))
	for _, nm := range models {
		var mbps [2]float64
		for _, prof := range []Profile{Dom0, Xoar} {
			mcfg := hw.DefaultMachineConfig()
			mcfg.NICModel = nm
			rig, err := BootRigMachine(prof, 1, mcfg, boot.Options{})
			if err != nil {
				return t, err
			}
			vm, err := rig.NewGuest("sat")
			if err != nil {
				rig.Close()
				return t, err
			}
			var res float64
			err = rig.Go(3000*sim.Second, func(p *sim.Proc) {
				res = vm.Fetch(p, bytes, guest.SinkNull).ThroughputMBps()
			})
			rig.Close()
			if err != nil {
				return t, err
			}
			mbps[prof] = res
			t.Rows = append(t.Rows, Row{
				Label:    fmt.Sprintf("%s %s", nm.Driver, prof),
				Measured: res,
				Unit:     "MB/s",
			})
		}
		overhead := 0.0
		if mbps[Dom0] > 0 {
			overhead = (mbps[Dom0] - mbps[Xoar]) / mbps[Dom0] * 100
		}
		t.Rows = append(t.Rows, Row{
			Label:    fmt.Sprintf("%s shard overhead", nm.Driver),
			Measured: overhead,
			Unit:     "%",
		})
	}
	t.Notes = append(t.Notes,
		"paper: 1-2.5% network overhead at 1G; batched rings keep the shard within noise at 10G+")
	return t, nil
}

// --- Tx batching: descriptors per backend wakeup -----------------------------

// TxBatching measures how many transmit descriptors NetBack services per
// wakeup at saturation, with notify suppression on (the req_event/rsp_event
// protocol) and ablated (every push notifies — the per-descriptor baseline).
//
//xoarlint:allow(unused) backs the gated BenchmarkDataPath_TxBatching; ROADMAP item 3 gives it an xoarbench id
func TxBatching(chunks int) (Table, error) {
	t := Table{ID: "datapath-batch", Title: "Tx descriptors per NetBack wakeup at saturation"}
	if chunks <= 0 {
		chunks = 400
	}
	run := func(alwaysNotify bool) (netdrv.DataPathStats, error) {
		rig, err := BootRig(Xoar, 1)
		if err != nil {
			return netdrv.DataPathStats{}, err
		}
		defer rig.Close()
		vm, err := rig.NewGuest("txb")
		if err != nil {
			return netdrv.DataPathStats{}, err
		}
		vm.NetB.SetAlwaysNotify(alwaysNotify)
		if err := rig.Go(3000*sim.Second, func(p *sim.Proc) {
			for i := 0; i < chunks; i++ {
				if serr := vm.Net.Send(p, netdrv.ChunkBytes, 1); serr != nil {
					return
				}
			}
		}); err != nil {
			return netdrv.DataPathStats{}, err
		}
		return vm.NetB.DataPathStats(), nil
	}
	sup, err := run(false)
	if err != nil {
		return t, err
	}
	abl, err := run(true)
	if err != nil {
		return t, err
	}
	if sup.TxNotifies == 0 || abl.TxNotifies == 0 {
		return t, fmt.Errorf("experiments: no tx notifies recorded")
	}
	supRatio := float64(sup.TxDescs) / float64(sup.TxNotifies)
	ablRatio := float64(abl.TxDescs) / float64(abl.TxNotifies)
	t.Rows = append(t.Rows,
		Row{Label: "descs/wakeup (suppressed)", Measured: supRatio, Unit: "descs"},
		Row{Label: "descs/wakeup (always-notify)", Measured: ablRatio, Unit: "descs"},
		Row{Label: "amortization", Measured: supRatio / ablRatio, Unit: "x"},
		Row{Label: "notifies suppressed", Measured: float64(sup.TxSuppressed), Unit: "count"},
	)
	t.Notes = append(t.Notes,
		"req_event/rsp_event suppression lets one backend wakeup drain a burst of descriptors;",
		"the ablation notifies per descriptor, the behaviour before this protocol")
	return t, nil
}
