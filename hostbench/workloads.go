package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"xoar/internal/attack"
	"xoar/internal/cluster"
	"xoar/internal/experiments"
	"xoar/internal/guest"
	"xoar/internal/netdrv"
	"xoar/internal/sim"
	"xoar/internal/workload"
)

// benchWorkload is one set of inputs the benchmark runs (why each exists is
// in NOTES.md). Every workload boots the Xoar profile; its size is counted in
// units, and unitsPerSec, measured on the reference box, turns the requested
// run length into a fixed amount of work.
type benchWorkload struct {
	name        string
	unit        string
	unitsPerSec float64
	setup       func(seed int64, units int) (platform, error)
}

var workloads = []benchWorkload{
	{"web", "HTTP batches", 400, setupWeb},
	{"bulk-disk", "fetches", 290, setupDisk},
	{"fleet-churn", "guests", 14500, setupChurn},
	{"fuzz-exec", "execs", 500, setupFuzz},
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// platform is a set-up, warmed-up workload ready for its timed phase.
type platform interface {
	// run drives the timed phase. tr is nil in the untraced run; in the
	// traced run it is attached to every env the phase uses.
	run(tr *tracer) outcome
	// close shuts the phase's sims down.
	close()
}

// outcome is what one timed phase reports.
type outcome struct {
	attempted, failed int
	checks            []string  // failed checks
	steps             []float64 // host ms of each step of the workload loop
	digest            digest
	layer             map[string]float64 // workload-specific per-layer values
	// probeMs is host time the traced run spends on measurement-only calls
	// (the extra audit-chain Verify), left out of the overhead comparison.
	probeMs float64
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

// digest is the modeled result of a phase. The sim is deterministic, so the
// traced run must reproduce the untraced run's digest exactly.
type digest struct {
	VirtualNs                     int64
	TxDescs, RxDescs, BlkReqDescs int64
	Launched, Failed              int
	Calls, Denied, AuditRecords   int
}

// sizes draws n operation sizes uniformly from [mean/2, 3*mean/2].
func sizes(seed int64, n, mean int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = mean/2 + rng.Intn(mean+1)
	}
	return out
}

// warmUp runs p's warm-up phase, which fills the sim free lists, ring
// buffers and heap before anything is timed.
func warmUp(name string, p platform) error {
	if o := p.run(nil); len(o.checks) > 0 {
		p.close()
		return fmt.Errorf("%s warm-up: %s", name, strings.Join(o.checks, "; "))
	}
	return nil
}

// bootGuest boots the Xoar profile and one §6.1 benchmark guest.
func bootGuest(seed int64, name string) (*experiments.Rig, *guest.VM, error) {
	rig, err := experiments.BootRig(experiments.Xoar, seed)
	if err != nil {
		return nil, nil, err
	}
	vm, err := rig.NewGuest(name)
	if err != nil {
		rig.Close()
		return nil, nil, err
	}
	return rig, vm, nil
}

// netLayer records the vif ring counters a phase moved and returns its
// descriptor counts for the digest.
func netLayer(layer map[string]float64, before, after netdrv.DataPathStats) (tx, rx int64) {
	tx, txn := after.TxDescs-before.TxDescs, after.TxNotifies-before.TxNotifies
	rx, rxn := after.RxDescs-before.RxDescs, after.RxNotifies-before.RxNotifies
	layer["netdrv.tx_descs"], layer["netdrv.tx_notifies"] = float64(tx), float64(txn)
	layer["netdrv.rx_descs"], layer["netdrv.rx_notifies"] = float64(rx), float64(rxn)
	layer["netdrv.tx_descs_per_notify"], layer["netdrv.rx_descs_per_notify"] = ratio(tx, txn), ratio(rx, rxn)
	return tx, rx
}

// drive spawns the benchmark's load process and advances env until body
// returns. Each return of control from the sim closes the traced slice.
func drive(env *sim.Env, tr *tracer, name string, body func(p *sim.Proc)) error {
	done := false
	env.Spawn(name, func(p *sim.Proc) {
		body(p)
		done = true
	})
	for deadline := env.Now().Add(driveLimit); !done && env.Now() < deadline; {
		env.RunFor(10 * sim.Second)
		tr.returned()
	}
	if !done {
		return fmt.Errorf("%s did not finish within %v of modeled time", name, driveLimit)
	}
	return nil
}

// driveLimit bounds one load process's modeled time, so a wedged model
// fails the run instead of spinning.
const driveLimit = 100_000 * sim.Second

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// --- web: Figure 6.5 --------------------------------------------------------

const (
	webPageBytes   = 11 * 1024 // Figure 6.5's page
	webClients     = 5         // ab concurrency
	webMeanBatch   = 250       // requests per RunHTTPBench call
	webWarmBatches = 40
)

type webPlatform struct {
	rig     *experiments.Rig
	vm      *guest.VM
	srv     *guest.HTTPServer
	batches []int
}

func setupWeb(seed int64, units int) (platform, error) {
	rig, vm, err := bootGuest(seed, "web")
	if err != nil {
		return nil, err
	}
	w := &webPlatform{rig: rig, vm: vm, srv: vm.StartHTTPServer(webPageBytes)}
	w.batches = sizes(^seed, webWarmBatches, webMeanBatch)
	if err := warmUp("web", w); err != nil {
		return nil, err
	}
	w.batches = sizes(seed, units, webMeanBatch)
	return w, nil
}

func (w *webPlatform) close() { w.rig.Close() }

func (w *webPlatform) run(tr *tracer) outcome {
	env := w.rig.Env
	if tr != nil {
		tr.attach(env)
	}
	var o outcome
	net0, served0, comp0, t0 := w.vm.NetB.DataPathStats(), w.srv.Served, env.Compactions(), env.Now()
	var requests, answered int
	var bytes int64
	err := drive(env, tr, "guest-http", func(p *sim.Proc) {
		for i, n := range w.batches {
			sw := tr.start("http-batch", "guest", i, 0)
			r := w.vm.RunHTTPBench(p, n, webClients, webPageBytes)
			o.steps = append(o.steps, sw.stop())
			requests += r.Requests
			answered += r.Requests - r.Errors
			bytes += r.Bytes
		}
	})
	o.check(err == nil, "%v", err)
	served := int(w.srv.Served - served0)
	for _, n := range w.batches {
		o.attempted += n
	}
	o.failed = o.attempted - min(answered, served)
	o.check(answered == o.attempted, "web: %d of %d requests answered", answered, o.attempted)
	o.check(served == o.attempted, "web: server served %d of %d requests", served, o.attempted)
	o.check(bytes == int64(o.attempted)*webPageBytes, "web: %d response bytes for %d pages", bytes, o.attempted)

	o.layer = map[string]float64{
		"guest.requests": float64(requests), "guest.errors": float64(requests - answered), "guest.bytes": float64(bytes),
		"guest.call_ms_p50": percentile(o.steps, 50), "guest.call_ms_p99": percentile(o.steps, 99),
		"sim.compactions": float64(env.Compactions() - comp0),
	}
	tx, rx := netLayer(o.layer, net0, w.vm.NetB.DataPathStats())
	o.digest = digest{VirtualNs: int64(env.Now() - t0), TxDescs: tx, RxDescs: rx}
	return o
}

// --- bulk-disk: Figure 6.2 --------------------------------------------------

const (
	diskMeanChunks = 1024 // 64 KB chunks per fetch: 64 MB
	diskWarmFetch  = 40
)

type diskPlatform struct {
	rig     *experiments.Rig
	vm      *guest.VM
	fetches []int // chunks per fetch
}

func setupDisk(seed int64, units int) (platform, error) {
	rig, vm, err := bootGuest(seed, "wget")
	if err != nil {
		return nil, err
	}
	d := &diskPlatform{rig: rig, vm: vm, fetches: sizes(^seed, diskWarmFetch, diskMeanChunks)}
	if err := warmUp("bulk-disk", d); err != nil {
		return nil, err
	}
	d.fetches = sizes(seed, units, diskMeanChunks)
	return d, nil
}

func (d *diskPlatform) close() { d.rig.Close() }

func (d *diskPlatform) run(tr *tracer) outcome {
	env := d.rig.Env
	if tr != nil {
		tr.attach(env)
	}
	var o outcome
	net0, blk0, comp0, t0 := d.vm.NetB.DataPathStats(), d.vm.BlkB.DataPathStats(), env.Compactions(), env.Now()
	var bytes int64
	var retransmits int
	err := drive(env, tr, "guest-fetch", func(p *sim.Proc) {
		for i, chunks := range d.fetches {
			want := int64(chunks) * netdrv.ChunkBytes
			before := d.vm.BlkB.DataPathStats().ReqDescs
			sw := tr.start("fetch", "guest", i, 0)
			r := d.vm.Fetch(p, want, guest.SinkDisk)
			o.steps = append(o.steps, sw.stop())
			wrote := d.vm.BlkB.DataPathStats().ReqDescs - before
			ok := r.Bytes == want && wrote == int64(chunks)
			o.check(ok, "bulk-disk: fetch %d moved %d of %d bytes in %d of %d block requests", i, r.Bytes, want, wrote, chunks)
			if !ok {
				o.failed++
			}
			bytes += r.Bytes
			retransmits += r.Retransmits
		}
	})
	o.check(err == nil, "%v", err)
	o.attempted = len(d.fetches)

	blk := d.vm.BlkB.DataPathStats()
	req, reqn := blk.ReqDescs-blk0.ReqDescs, blk.ReqNotifies-blk0.ReqNotifies
	o.layer = map[string]float64{
		"blkdrv.req_descs": float64(req), "blkdrv.req_notifies": float64(reqn),
		"blkdrv.resp_notifies": float64(blk.RespNotifies - blk0.RespNotifies), "blkdrv.req_descs_per_notify": ratio(req, reqn),
		"guest.requests": float64(len(d.fetches)), "guest.bytes": float64(bytes), "guest.retransmits": float64(retransmits),
		"guest.call_ms_p50": percentile(o.steps, 50), "guest.call_ms_p99": percentile(o.steps, 99),
		"sim.compactions": float64(env.Compactions() - comp0),
	}
	tx, rx := netLayer(o.layer, net0, d.vm.NetB.DataPathStats())
	o.digest = digest{VirtualNs: int64(env.Now() - t0), TxDescs: tx, RxDescs: rx, BlkReqDescs: req}
	return o
}

// --- fleet-churn: serverless churn across a Xoar fleet ----------------------

const (
	churnHosts      = 8
	churnRate       = 1000 // Poisson arrivals per modeled second
	churnLifetime   = 150 * sim.Millisecond
	churnMemMB      = 64
	churnWarmGuests = 3000
	// churnTick is the modeled time one step advances the fleet;
	// at the arrival rate that is about ten guests.
	churnTick = 10 * sim.Millisecond
)

type churnPlatform struct {
	c      *cluster.Cluster
	guests int
	// Live domains per host and live sim processes after boot: every
	// churn must return the fleet to them.
	bootDomains []int
	bootProcs   int
}

func setupChurn(seed int64, units int) (platform, error) {
	c, err := cluster.New(cluster.Config{Hosts: churnHosts, Seed: seed, Policy: cluster.Spread{}})
	if err != nil {
		return nil, err
	}
	f := &churnPlatform{c: c, guests: churnWarmGuests, bootProcs: c.Env.LiveProcs()}
	for _, h := range c.Hosts {
		f.bootDomains = append(f.bootDomains, len(h.HV.Domains()))
	}
	if err := warmUp("fleet-churn", f); err != nil {
		return nil, err
	}
	f.guests = units
	return f, nil
}

func (f *churnPlatform) close() { f.c.Env.Shutdown() }

// timedLauncher wraps the cluster in the traced run to time each guest
// teardown. DestroyVM never waits on the sim clock, so the interval is the
// teardown's own host time.
type timedLauncher struct {
	c         *cluster.Cluster
	tr        *tracer
	destroyUs []float64
}

func (l *timedLauncher) Launch(p *sim.Proc, name string, memMB int) (func(*sim.Proc) error, error) {
	destroy, err := l.c.Launch(p, name, memMB)
	if err != nil {
		return nil, err
	}
	op, _ := strconv.Atoi(strings.TrimPrefix(name, "fn-")) // op id only; names come from ServerlessChurn
	return func(p *sim.Proc) error {
		sw := l.tr.start("teardown", "toolstack", op, 0)
		err := destroy(p)
		l.destroyUs = append(l.destroyUs, sw.stop()*1e3)
		return err
	}, nil
}

func (f *churnPlatform) mutations() int {
	n := 0
	for _, h := range f.c.Hosts {
		n += h.PL.XenStoreState.Mutations()
	}
	return n
}

func (f *churnPlatform) run(tr *tracer) outcome {
	env := f.c.Env
	var launcher workload.Launcher = f.c
	var timed *timedLauncher
	if tr != nil {
		tr.attach(env)
		timed = &timedLauncher{c: f.c, tr: tr}
		launcher = timed
	}
	var o outcome
	mut0, placed0, comp0, t0 := f.mutations(), f.c.Placements, env.Compactions(), env.Now()
	var st workload.ChurnStats
	done := false
	env.Spawn("workload-churn", func(p *sim.Proc) {
		st = workload.ServerlessChurn(p, launcher, workload.ChurnConfig{
			ArrivalsPerSec: churnRate, Total: f.guests, MeanLifetime: churnLifetime, MemMB: churnMemMB,
		})
		done = true
	})
	for deadline := env.Now().Add(driveLimit); !done && env.Now() < deadline; {
		start := time.Now()
		env.RunFor(churnTick)
		tr.returned()
		o.steps = append(o.steps, float64(time.Since(start))/1e6)
	}
	o.check(done, "fleet-churn: churn did not finish within %v of modeled time", driveLimit)
	o.attempted, o.failed = f.guests, f.guests-st.Launched
	o.check(st.Submitted == f.guests, "fleet-churn: %d of %d guests submitted", st.Submitted, f.guests)
	o.check(st.Launched+st.Failed == st.Submitted, "fleet-churn: %d launched + %d failed != %d submitted", st.Launched, st.Failed, st.Submitted)
	o.check(f.c.Placements-placed0 == st.Launched, "fleet-churn: %d placements for %d launches", f.c.Placements-placed0, st.Launched)
	live := 0
	for i, h := range f.c.Hosts {
		n := len(h.HV.Domains())
		live += n
		o.check(n == f.bootDomains[i], "fleet-churn: %s has %d live domains, %d after boot", h.Name, n, f.bootDomains[i])
	}
	o.check(env.LiveProcs() == f.bootProcs, "fleet-churn: %d live sim processes, %d after boot", env.LiveProcs(), f.bootProcs)

	o.digest = digest{VirtualNs: int64(env.Now() - t0), Launched: st.Launched, Failed: st.Failed}
	o.layer = map[string]float64{
		"xenstore.mutations":    float64(f.mutations() - mut0),
		"cluster.launched":      float64(st.Launched),
		"cluster.failed":        float64(st.Failed),
		"cluster.peak_resident": float64(st.PeakResident),
		"hv.live_domains_end":   float64(live),
		"sim.compactions":       float64(env.Compactions() - comp0),
	}
	if timed != nil {
		o.layer["toolstack.destroy_us_p50"] = percentile(timed.destroyUs, 50)
		o.layer["toolstack.destroy_us_p99"] = percentile(timed.destroyUs, 99)
	}
	return o
}

// --- fuzz-exec: the nightly fuzz loop ---------------------------------------

const fuzzWarmExecs = 50

type fuzzPlatform struct {
	seeds []int64 // attack.Generate seeds, one per exec
}

func fuzzSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

func setupFuzz(seed int64, units int) (platform, error) {
	z := &fuzzPlatform{seeds: fuzzSeeds(^seed, fuzzWarmExecs)}
	if err := warmUp("fuzz-exec", z); err != nil {
		return nil, err
	}
	z.seeds = fuzzSeeds(seed, units)
	return z, nil
}

// close is a no-op: every exec shuts its own harness down.
func (z *fuzzPlatform) close() {}

func (z *fuzzPlatform) run(tr *tracer) outcome {
	var o outcome
	var bootMs, runMs, verifyUs, closeMs []float64
	var findings, hvDenied, restarts, compactions int
	for i, s := range z.seeds {
		exec := tr.start("exec", "attack", i, 0)
		boot := tr.start("boot", "boot", i, exec.span)
		ha, err := attack.NewHarness()
		bootMs = append(bootMs, boot.stop())
		if err != nil {
			o.check(false, "fuzz-exec: exec %d: %v", i, err)
			o.failed++
			o.steps = append(o.steps, exec.stop())
			continue
		}
		if tr != nil {
			tr.attach(ha.Env)
		}
		v0, denied0 := ha.Env.Now(), ha.H.DeniedCalls
		run := tr.start("run", "attack", i, exec.span)
		res := ha.Run(attack.Generate(s))
		runMs = append(runMs, run.stop())
		tr.returned()
		if tr != nil {
			verify := tr.start("verify", "audit", i, exec.span)
			broken := ha.Log.Verify()
			ms := verify.stop()
			verifyUs = append(verifyUs, ms*1e3)
			o.probeMs += ms
			o.check(broken == -1, "fuzz-exec: exec %d: audit chain breaks at record %d", i, broken)
		}
		o.digest.VirtualNs += int64(ha.Env.Now() - v0)
		o.digest.Calls += res.Attempted
		o.digest.Denied += res.Denied
		o.digest.AuditRecords += ha.Log.Len()
		findings += len(res.Findings)
		hvDenied += ha.H.DeniedCalls - denied0
		compactions += ha.Env.Compactions()
		for _, dom := range ha.Engine.Managed() {
			st, _ := ha.Engine.Stats(dom)
			restarts += st.Restarts
		}
		for _, f := range res.Findings {
			o.check(false, "fuzz-exec: exec %d (seed %d): %v", i, s, f)
		}
		if len(res.Findings) > 0 {
			o.failed++
		}
		shut := tr.start("close", "sim", i, exec.span)
		ha.Close()
		closeMs = append(closeMs, shut.stop())
		tr.returned()
		o.steps = append(o.steps, exec.stop())
	}
	o.attempted = len(z.seeds)
	o.layer = map[string]float64{
		"audit.records_per_exec": ratio(int64(o.digest.AuditRecords), int64(len(z.seeds))),
		"audit.verify_us":        median(verifyUs),
		"attack.calls":           float64(o.digest.Calls),
		"attack.denied":          float64(o.digest.Denied),
		"attack.denied_ratio":    ratio(int64(o.digest.Denied), int64(o.digest.Calls)),
		"attack.findings":        float64(findings),
		"attack.run_ms":          median(runMs),
		"hv.denied_calls":        float64(hvDenied),
		"boot.harness_ms":        median(bootMs),
		"snapshot.restarts":      float64(restarts),
		"sim.shutdown_ms":        median(closeMs),
		"sim.compactions":        float64(compactions),
	}
	return o
}
