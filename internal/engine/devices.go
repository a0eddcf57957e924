package engine

// The device registry: one table describing every reconstruction
// target — canonical name, aliases, config knobs and their defaults,
// and pipeline capability — that drives JobSpec normalization and
// validation, device construction, every command's -device flag, and
// the daemon's GET /v1/devices discovery endpoint. Because all of them
// read the same table, the API surface cannot drift from what the
// engine actually accepts.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/apicode"
	"repro/internal/device"
	"repro/internal/ftl"
	"repro/internal/hoststack"
)

// Pipeline capabilities, as reported by device discovery.
const (
	// PipelineShardParallel marks devices that drain between epochs
	// (device.ShardSafe): every epoch emulates from time zero in a
	// worker, each latency in closed form, and shifts into place.
	PipelineShardParallel = "shard-parallel"
	// PipelineStateful marks devices whose state persists across idle
	// periods: one serial device pass services the epochs in order, and
	// the stages around it run in parallel.
	PipelineStateful = "stateful-pipelined"
)

// DeviceKnob documents one nested config field of a device target.
type DeviceKnob struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	Default string `json:"default"`
	Help    string `json:"help"`
}

// DeviceInfo describes one reconstruction target for capability
// discovery.
type DeviceInfo struct {
	// Name is the canonical JobSpec.Device value.
	Name string `json:"name"`
	// Aliases are accepted spellings that normalize to Name.
	Aliases []string `json:"aliases,omitempty"`
	// Default marks the target an empty JobSpec.Device selects.
	Default bool `json:"default,omitempty"`
	// Pipeline is the execution strategy the engine uses for this
	// target: PipelineShardParallel or PipelineStateful.
	Pipeline string `json:"pipeline"`
	// ConfigField names the nested JobSpec field that tunes this
	// target ("" when it has none).
	ConfigField string `json:"config_field,omitempty"`
	// Summary is a one-line description.
	Summary string `json:"summary"`
	// Knobs documents the nested config fields (ConfigField targets).
	Knobs []DeviceKnob `json:"knobs,omitempty"`
}

// deviceEntry couples the published DeviceInfo with the spec-aware
// device constructor.
type deviceEntry struct {
	info DeviceInfo
	// build returns the device constructor for a normalized, validated
	// spec.
	build func(spec JobSpec) func() device.Device
	// bytes bounds what a device of a normalized, validated spec holds
	// at most, for the kept-target budget (targets.go).
	bytes func(spec JobSpec) int64
}

// deviceRegistry is filled in init: the host row builds its inner
// device from another row, and a literal whose closures reach the
// registry would be an initialization cycle.
var deviceRegistry []deviceEntry

func init() {
	deviceRegistry = []deviceEntry{{
		info: DeviceInfo{
			Name:     "array",
			Aliases:  []string{"new"},
			Default:  true,
			Pipeline: PipelineShardParallel,
			Summary:  "the paper's modern 4-SSD flash array (the NEW system)",
		},
		build: func(JobSpec) func() device.Device {
			return func() device.Device { return device.NewArray(device.DefaultArrayConfig()) }
		},
		bytes: func(JobSpec) int64 { return smallTargetBytes },
	},
		{
			info: DeviceInfo{
				Name:     "ssd",
				Pipeline: PipelineShardParallel,
				Summary:  "one member SSD of the array",
			},
			build: func(JobSpec) func() device.Device {
				return func() device.Device { return device.NewSSD(device.DefaultSSDConfig()) }
			},
			bytes: func(JobSpec) int64 { return smallTargetBytes },
		},
		{
			info: DeviceInfo{
				Name:     "hdd",
				Aliases:  []string{"old"},
				Pipeline: PipelineStateful,
				Summary:  "the decade-old disk the public traces were captured on (the OLD system)",
			},
			build: func(JobSpec) func() device.Device {
				return func() device.Device { return device.NewHDD(device.DefaultHDDConfig()) }
			},
			bytes: func(JobSpec) int64 { return smallTargetBytes },
		},
		{
			info: DeviceInfo{
				Name:        "ftl",
				Pipeline:    PipelineStateful,
				ConfigField: "ftl_config",
				Summary:     "page-mapped flash translation layer with background GC in idle gaps",
				Knobs: []DeviceKnob{
					{Name: "blocks", Type: "int", Default: "1024", Help: "physical erase blocks"},
					{Name: "pages_per_block", Type: "int", Default: "128", Help: "pages per erase block"},
					{Name: "page_kb", Type: "int", Default: "8", Help: "flash page size in KiB"},
					{Name: "overprovision_pct", Type: "float", Default: "0.07", Help: "fraction of blocks reserved from the host LBA space"},
					{Name: "read_latency_us", Type: "float", Default: "50", Help: "page read latency (tR)"},
					{Name: "program_latency_us", Type: "float", Default: "600", Help: "page program latency (tPROG)"},
					{Name: "erase_latency_us", Type: "float", Default: "3000", Help: "block erase latency (tBERS)"},
					{Name: "gc_trigger_free_blocks", Type: "int", Default: "8", Help: "free-block level that starts foreground GC"},
					{Name: "background_gc_target", Type: "int", Default: "32", Help: "free-block level background GC restores during idle gaps"},
				},
			},
			build: func(spec JobSpec) func() device.Device {
				cfg := spec.FTLConfig.Config()
				return func() device.Device { return device.NewFTLDevice(cfg) }
			},
			bytes: func(spec JobSpec) int64 { return ftl.StateBytes(spec.FTLConfig.Config()) },
		},
		{
			info: DeviceInfo{
				Name:        "host",
				Aliases:     []string{"hoststack"},
				Pipeline:    PipelineStateful,
				ConfigField: "host_config",
				Summary:     "host storage stack (syscall + page cache + writeback) over an inner device",
				Knobs: []DeviceKnob{
					{Name: "device", Type: "string", Default: "hdd", Help: "inner block device: hdd, array or ssd"},
					{Name: "cache_pages", Type: "int", Default: "65536", Help: "page-cache capacity in pages"},
					{Name: "page_kb", Type: "int", Default: "4", Help: "cache page size in KiB"},
					{Name: "write_through", Type: "bool", Default: "false", Help: "disable write-back buffering"},
					{Name: "dirty_high_water", Type: "float", Default: "0.20", Help: "dirty fraction that triggers synchronous flushing"},
					{Name: "flush_batch", Type: "int", Default: "32", Help: "dirty pages written per flush round"},
					{Name: "readahead_pages", Type: "int", Default: "8", Help: "pages prefetched after a read miss (-1 disables)"},
					{Name: "syscall_overhead_us", Type: "float", Default: "3", Help: "per-request mode-switch and copy cost"},
					{Name: "hit_latency_us", Type: "float", Default: "2", Help: "cache-hit service time"},
				},
			},
			// The inner device is a row without a config (validate): its
			// build takes no spec, and it holds smallTargetBytes.
			build: func(spec JobSpec) func() device.Device {
				inner := knobDefaults[HostSpec]("host").Inner
				if spec.HostConfig != nil {
					inner = cmp.Or(spec.HostConfig.Inner, inner)
				}
				cfg, mk := spec.HostConfig.Config(), deviceEntryFor(inner).build(JobSpec{})
				return func() device.Device { return hoststack.New(cfg, mk()) }
			},
			bytes: func(spec JobSpec) int64 { return hoststack.CacheBytes(spec.HostConfig.Config()) + smallTargetBytes },
		}}
}

// Devices returns the published capability table, for the daemon's
// discovery endpoint.
func Devices() []DeviceInfo {
	out := make([]DeviceInfo, len(deviceRegistry))
	for i := range deviceRegistry {
		out[i] = deviceRegistry[i].info
	}
	return out
}

// normalizeDevice canonicalizes JobSpec.Device aliases via the
// registry ("" is the Default row); unknown names pass through for
// Validate to reject.
func normalizeDevice(name string) string {
	for i := range deviceRegistry {
		e := &deviceRegistry[i].info
		if name == e.Name || slices.Contains(e.Aliases, name) || name == "" && e.Default {
			return e.Name
		}
	}
	return name
}

// DeviceUsage lists the registry's names for a -device flag's help:
// each target quoted, its aliases after a slash.
func DeviceUsage() string {
	names := make([]string, len(deviceRegistry))
	for i, e := range deviceRegistry {
		names[i] = strconv.Quote(e.info.Name)
		for _, a := range e.info.Aliases {
			names[i] += "/" + strconv.Quote(a)
		}
	}
	return strings.Join(names, ", ")
}

// knobDefaults is the nested config of the named target with every knob
// at its table Default: the JSON object that column spells.
func knobDefaults[S any](target string) (def S) {
	var fields []string
	for _, k := range deviceEntryFor(target).info.Knobs {
		v := k.Default
		if k.Type == "string" {
			v = strconv.Quote(v)
		}
		fields = append(fields, strconv.Quote(k.Name)+":"+v)
	}
	if err := json.Unmarshal([]byte("{"+strings.Join(fields, ",")+"}"), &def); err != nil {
		panic(err) // the table is a literal
	}
	return def
}

// offDefault is the one form of the target's nested config cfg: its
// device knob (the one string knob) by its registry name, every knob
// that builds what its table Default builds cleared (a *_us knob builds
// usDuration: 50.0004 is the default 50), and nil once nothing is left.
// A knob out of range is never its default, so Validate still sees it;
// a device knob that names no inner device keeps the client's spelling,
// so Validate quotes it.
func offDefault[S any](cfg *S, target string) *S {
	if cfg == nil {
		return nil
	}
	c := *cfg
	v, def := reflect.ValueOf(&c).Elem(), reflect.ValueOf(knobDefaults[S](target))
	for i := range v.NumField() {
		f, d := v.Field(i), def.Field(i)
		if f.Kind() == reflect.String && f.String() != "" {
			if e := deviceEntryFor(normalizeDevice(f.String())); e != nil && e.info.ConfigField == "" {
				f.SetString(e.info.Name)
			}
		}
		us := f.Kind() == reflect.Float64 && strings.HasSuffix(v.Type().Field(i).Name, "US")
		if f.Equal(d) || us && durationUS(f.Float()) && usDuration(f.Float()) == usDuration(d.Float()) {
			f.SetZero()
		}
	}
	if v.IsZero() {
		return nil
	}
	return &c
}

// deviceEntryFor returns the registry entry for a canonical device
// name, nil when unknown.
func deviceEntryFor(name string) *deviceEntry {
	for i := range deviceRegistry {
		if deviceRegistry[i].info.Name == name {
			return &deviceRegistry[i]
		}
	}
	return nil
}

// DeviceFactory maps a JobSpec.Device name (aliases included, "" =
// array) to a device constructor with default config, for callers
// without a full spec (the benchmark, reference computations in tests).
func DeviceFactory(name string) (func() device.Device, error) {
	e := deviceEntryFor(normalizeDevice(name))
	if e == nil {
		return nil, &ValidationError{Field: "device", Code: apicode.UnknownDevice,
			msg: fmt.Sprintf("unknown device %q", name)}
	}
	return e.build(JobSpec{}), nil
}

// FTLSpec is the JobSpec.FTLConfig payload: the "ftl" target's knobs,
// a field per row of its registry knob table. Zero fields keep the
// defaults (device.DefaultFTLDeviceConfig, the table's Default column);
// Normalized zeroes a field spelled at its default.
type FTLSpec struct {
	Blocks              int     `json:"blocks,omitempty"`
	PagesPerBlock       int     `json:"pages_per_block,omitempty"`
	PageKB              int     `json:"page_kb,omitempty"`
	OverprovisionPct    float64 `json:"overprovision_pct,omitempty"`
	ReadLatencyUS       float64 `json:"read_latency_us,omitempty"`
	ProgramLatencyUS    float64 `json:"program_latency_us,omitempty"`
	EraseLatencyUS      float64 `json:"erase_latency_us,omitempty"`
	GCTriggerFreeBlocks int     `json:"gc_trigger_free_blocks,omitempty"`
	BackgroundGCTarget  int     `json:"background_gc_target,omitempty"`
}

// Config is the ftl.Config the spec builds the "ftl" target with (nil =
// all defaults, device.DefaultFTLDeviceConfig).
func (s *FTLSpec) Config() ftl.Config {
	cfg := device.DefaultFTLDeviceConfig()
	if s == nil {
		return cfg
	}
	if s.Blocks > 0 {
		cfg.Blocks = s.Blocks
	}
	if s.PagesPerBlock > 0 {
		cfg.PagesPerBlock = s.PagesPerBlock
	}
	if s.PageKB > 0 {
		cfg.PageKB = s.PageKB
	}
	if s.OverprovisionPct > 0 {
		cfg.OverprovisionPct = s.OverprovisionPct
	}
	if s.ReadLatencyUS > 0 {
		cfg.ReadLatency = usDuration(s.ReadLatencyUS)
	}
	if s.ProgramLatencyUS > 0 {
		cfg.ProgramLatency = usDuration(s.ProgramLatencyUS)
	}
	if s.EraseLatencyUS > 0 {
		cfg.EraseLatency = usDuration(s.EraseLatencyUS)
	}
	if s.GCTriggerFreeBlocks > 0 {
		cfg.GCTriggerFreeBlocks = s.GCTriggerFreeBlocks
	}
	if s.BackgroundGCTarget > 0 {
		cfg.BackgroundGCTarget = s.BackgroundGCTarget
	}
	return cfg
}

// validate bounds the geometry so a daemon request cannot allocate an
// unbounded simulator, and keeps GC schedulable (ErrFull unreachable).
func (s *FTLSpec) validate() *ValidationError {
	bad := func(knob, msg string) *ValidationError {
		return &ValidationError{Field: "ftl_config." + knob, Code: apicode.BadDeviceConfig, msg: msg}
	}
	if s == nil {
		return nil
	}
	if s.Blocks != 0 && (s.Blocks < 64 || s.Blocks > 1<<16) {
		return bad("blocks", fmt.Sprintf("blocks must be in [64, %d]", 1<<16))
	}
	if s.PagesPerBlock < 0 || s.PagesPerBlock > 1<<12 {
		return bad("pages_per_block", fmt.Sprintf("pages_per_block must be in [0, %d]", 1<<12))
	}
	cfg := s.Config()
	if total := int64(cfg.Blocks) * int64(cfg.PagesPerBlock); total > 1<<22 {
		return bad("blocks", fmt.Sprintf("blocks * pages_per_block must be at most %d", 1<<22))
	}
	if s.PageKB < 0 || s.PageKB > 64 {
		return bad("page_kb", "page_kb must be in [0, 64]")
	}
	if s.OverprovisionPct < 0 || s.OverprovisionPct > 0.5 {
		return bad("overprovision_pct", "overprovision_pct must be in [0, 0.5]")
	}
	if !durationUS(s.ReadLatencyUS) {
		return bad("read_latency_us", "read_latency_us"+durationUSRule)
	}
	if !durationUS(s.ProgramLatencyUS) {
		return bad("program_latency_us", "program_latency_us"+durationUSRule)
	}
	if !durationUS(s.EraseLatencyUS) {
		return bad("erase_latency_us", "erase_latency_us"+durationUSRule)
	}
	if s.GCTriggerFreeBlocks < 0 || cfg.GCTriggerFreeBlocks >= cfg.Blocks {
		return bad("gc_trigger_free_blocks", "gc_trigger_free_blocks must be in [0, blocks)")
	}
	if s.BackgroundGCTarget < 0 || cfg.BackgroundGCTarget >= cfg.Blocks {
		return bad("background_gc_target", "background_gc_target must be in [0, blocks)")
	}
	return nil
}

// HostSpec is the JobSpec.HostConfig payload: the "host" target's
// knobs, a field per row of its registry knob table. Zero fields keep
// the defaults (hoststack.DefaultConfig, the table's Default column);
// ReadAheadPages uses -1 to disable. Normalized zeroes a field spelled
// at its default.
type HostSpec struct {
	// Inner names the block device under the stack: a registry target
	// without a config, by name or alias ("" = the default, hdd).
	Inner             string  `json:"device,omitempty"`
	CachePages        int     `json:"cache_pages,omitempty"`
	PageKB            int     `json:"page_kb,omitempty"`
	WriteThrough      bool    `json:"write_through,omitempty"`
	DirtyHighWater    float64 `json:"dirty_high_water,omitempty"`
	FlushBatch        int     `json:"flush_batch,omitempty"`
	ReadAheadPages    int     `json:"readahead_pages,omitempty"`
	SyscallOverheadUS float64 `json:"syscall_overhead_us,omitempty"`
	HitLatencyUS      float64 `json:"hit_latency_us,omitempty"`
}

// Config is the stack config the spec builds the "host" target with
// (nil = all defaults, hoststack.DefaultConfig). The block-layer log is
// always disabled on engine targets: it grows without bound over a
// trace and nothing reads it.
func (s *HostSpec) Config() hoststack.Config {
	cfg := hoststack.DefaultConfig()
	cfg.NoBlockLog = true
	if s == nil {
		return cfg
	}
	if s.CachePages > 0 {
		cfg.CachePages = s.CachePages
	}
	if s.PageKB > 0 {
		cfg.PageKB = s.PageKB
	}
	cfg.WriteBack = !s.WriteThrough
	if s.DirtyHighWater > 0 {
		cfg.DirtyHighWater = s.DirtyHighWater
	}
	if s.FlushBatch > 0 {
		cfg.FlushBatch = s.FlushBatch
	}
	switch {
	case s.ReadAheadPages > 0:
		cfg.ReadAheadPages = s.ReadAheadPages
	case s.ReadAheadPages < 0:
		cfg.ReadAheadPages = 0
	}
	if s.SyscallOverheadUS > 0 {
		cfg.SyscallOverhead = usDuration(s.SyscallOverheadUS)
	}
	if s.HitLatencyUS > 0 {
		cfg.HitLatency = usDuration(s.HitLatencyUS)
	}
	return cfg
}

// validate bounds the cache geometry and checks the inner device.
func (s *HostSpec) validate() *ValidationError {
	bad := func(knob, msg string) *ValidationError {
		return &ValidationError{Field: "host_config." + knob, Code: apicode.BadDeviceConfig, msg: msg}
	}
	if s == nil {
		return nil
	}
	if e := deviceEntryFor(normalizeDevice(s.Inner)); s.Inner != "" && (e == nil || e.info.ConfigField != "") {
		return bad("device", fmt.Sprintf("inner device must be hdd, array or ssd, not %q", s.Inner))
	}
	if s.CachePages < 0 || s.CachePages > 1<<22 {
		return bad("cache_pages", fmt.Sprintf("cache_pages must be in [0, %d]", 1<<22))
	}
	if s.PageKB < 0 || s.PageKB > 64 {
		return bad("page_kb", "page_kb must be in [0, 64]")
	}
	if s.DirtyHighWater < 0 || s.DirtyHighWater >= 1 {
		return bad("dirty_high_water", "dirty_high_water must be in [0, 1)")
	}
	if s.FlushBatch < 0 {
		return bad("flush_batch", "flush_batch must be non-negative")
	}
	if s.ReadAheadPages < -1 || s.ReadAheadPages > 1024 {
		return bad("readahead_pages", "readahead_pages must be in [-1, 1024]")
	}
	if !durationUS(s.SyscallOverheadUS) {
		return bad("syscall_overhead_us", "syscall_overhead_us"+durationUSRule)
	}
	if !durationUS(s.HitLatencyUS) {
		return bad("hit_latency_us", "hit_latency_us"+durationUSRule)
	}
	return nil
}

// durationUSRule completes the message of a microsecond knob
// durationUS rejects.
const durationUSRule = " must be a number of microseconds, at least 0, that fits a duration"

// durationUS reports whether a microsecond knob converts to a
// non-negative time.Duration: not NaN, at least 0, and small enough that
// its nanoseconds fit an int64. threshold_us and every *_us knob of a
// device config share the rule.
func durationUS(us float64) bool {
	return us >= 0 && us*float64(time.Microsecond) < math.MaxInt64
}

// usDuration is what a device build makes of a *_us knob.
func usDuration(us float64) time.Duration { return time.Duration(us * float64(time.Microsecond)) }
