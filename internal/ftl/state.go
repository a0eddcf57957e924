package ftl

// Snapshot/restore of the complete translation state (see
// device.Stateful). Unlike the HDD — whose state is four words — an
// FTL's servicing depends on the entire mapping table, per-block
// wear/occupancy and GC progress, so a snapshot is a deep copy sized by
// the device geometry (2.2 MB on device.DefaultFTLDeviceConfig).

// State is a deep copy of an FTL's complete servicing state: mapping
// table, per-block page states and wear, free list, active/GC block
// cursors, and accumulated statistics. A State is only meaningful to
// an FTL built from the same Config as the one that took it.
type State struct {
	blocks    []block
	free      []int
	freeHead  int
	freeCount int
	active    int
	gcActive  int
	l2p       []int64
	stats     Stats
}

// Snapshot captures the FTL's state as a value independent of the
// FTL's future evolution.
func (f *FTL) Snapshot() State {
	st := State{
		blocks:    make([]block, len(f.blocks)),
		free:      append([]int(nil), f.free...),
		freeHead:  f.freeHead,
		freeCount: f.freeCount,
		active:    f.active,
		gcActive:  f.gcActive,
		l2p:       append([]int64(nil), f.l2p...),
		stats:     f.stats,
	}
	for i := range f.blocks {
		b := &f.blocks[i]
		st.blocks[i] = block{
			pages:      append([]pageState(nil), b.pages...),
			lpns:       append([]int64(nil), b.lpns...),
			validCount: b.validCount,
			writePtr:   b.writePtr,
			eraseCount: b.eraseCount,
		}
	}
	return st
}

// Restore replaces the FTL's state with st. The FTL adopts st's
// backing storage — a State must be restored at most once, and the
// caller must not use it afterwards. (Snapshot already copied out of
// the source device, so adoption keeps a snapshot+restore round trip at
// one copy instead of two.)
func (f *FTL) Restore(st State) {
	f.blocks = st.blocks
	f.free = st.free
	f.freeHead, f.freeCount = st.freeHead, st.freeCount
	f.active = st.active
	f.gcActive = st.gcActive
	f.l2p = st.l2p
	f.stats = st.stats
}
