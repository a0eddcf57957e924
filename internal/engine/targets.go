package engine

// Reconstruction targets kept between jobs. A job run takes every
// device it needs — a stateful target's one device, or a shard-safe
// target's device per worker plus the run's own — from keptTargets,
// keyed by the normalized target config, and Resets it on take; only
// when the list holds no device of that config is one built. When the
// run ends, succeeded or failed, every device it took goes back. That is
// after the stage graph's goroutines have exited, so no device is ever
// used by two live runs. Reset is the device-state contract (a Reset
// device services a trace exactly as a new one does), so a kept target
// serves the bytes a built one would; what it saves is the build: the
// default host's cache regrows to 2 MiB in ten doublings, each index
// doubling re-chaining every resident page, and the default ftl's
// arrays are 1.16 MB.
//
// The list holds at most keptTargetCount devices, each of at most
// targetBudget bytes by its registry row's bound, so it never holds more
// than keptTargetBytes, and it drops everything once no job has taken
// or returned a device for kept.Idle. A device of a config over the
// budget is built for its run and dropped with it.
//
// Only job runs (RunJob, RunJobTo, RunJobCached) take kept devices.
// Config.Device, Engine.Reconstruct and DeviceFactory build fresh ones.

import (
	"sync"

	"repro/internal/device"
	"repro/internal/kept"
	"repro/internal/obs"
)

// keptTargetCount is how many devices the list holds: what two
// concurrent jobs (the daemon's default -jobs) on a shard-safe target
// take at three workers, a device per worker and one for the run. A job
// on a stateful target takes one, so the same eight hold the devices of
// several configs a daemon alternates between.
const keptTargetCount = 8

// targetBudget is the most bytes one kept device may hold. The default
// host target's cache reaches 2 MiB and the default ftl's arrays
// 1.16 MB, so both are kept; a host cache of more than about 85 Ki
// pages, or an ftl of more than about 2.7× the default geometry's pages,
// is not.
const targetBudget = 3 << 20

// keptTargetBytes is the most the list holds: 24 MiB.
const keptTargetBytes = keptTargetCount * targetBudget

// smallTargetBytes bounds what the hdd, ssd and array models hold: a
// few words of mechanism state, or the busy-until times of the array's
// four members, 90 each, ≈ 4 KiB with their headers.
const smallTargetBytes = 8 << 10

// targetKey is the normalized target config: the device fields
// JobSpec.Fingerprint keeps. A field of another target is zero.
type targetKey struct {
	device string
	ftl    FTLSpec
	host   HostSpec
}

var keptTargets = kept.New[targetKey, device.Device](keptTargetCount)

// jobTargets hands one job run its devices and takes them back.
type jobTargets struct {
	key   targetKey
	build func() device.Device
	// keep: a device of this config fits targetBudget.
	keep bool
	mtr  *obs.EngineMetrics

	mu    sync.Mutex
	taken []device.Device // guarded by mu
}

// targetsFor returns the device source of a run of the normalized,
// validated spec.
func targetsFor(spec JobSpec, mtr *obs.EngineMetrics) *jobTargets {
	e := deviceEntryFor(spec.Device)
	key := targetKey{device: spec.Device}
	if spec.FTLConfig != nil {
		key.ftl = *spec.FTLConfig
	}
	if spec.HostConfig != nil {
		key.host = *spec.HostConfig
	}
	return &jobTargets{
		key:   key,
		build: e.build(spec),
		keep:  e.bytes(spec) <= targetBudget,
		mtr:   mtr,
	}
}

// take is the run's Config.Device: a kept device of the run's config,
// Reset, or a new one. Safe for concurrent use: a shard-safe run's
// workers take theirs at once.
func (t *jobTargets) take() device.Device {
	var dev device.Device
	ok := false
	if t.keep {
		dev, ok = keptTargets.Get(t.key)
	}
	if ok {
		dev.Reset()
	} else {
		dev = t.build()
	}
	t.mtr.Target(ok)
	t.mu.Lock()
	t.taken = append(t.taken, dev)
	t.mu.Unlock()
	return dev
}

// release hands back every device the run took. Call it only once the
// run's goroutines have exited.
func (t *jobTargets) release() {
	if !t.keep {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, dev := range t.taken {
		keptTargets.Put(t.key, dev)
	}
}
