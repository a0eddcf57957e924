// Package apicode is the stable error-code vocabulary of the daemon's
// v1 API: the code every non-2xx response carries in its envelope
// {"error":{"code","message"}}, and the values clients switch on.
//
// The codes are a type, not strings, so the envelope writers and
// engine.ValidationError accept nothing else: a code outside this table
// does not compile. The README's "stable codes" paragraph lists the
// same names for clients, and cmd/tracetrackerd's TestStableCodeSync
// fails when the two differ.
//
// Grow it deliberately: a new code is a contract extension clients
// must be able to switch on, not a convenience for one handler. It is
// one constant below, one name in names and one README entry.
package apicode

// Code is one stable error code. The zero value is Internal, so an
// envelope built without a cause never claims a client fault.
type Code uint8

const (
	Internal Code = iota
	BadCursor
	BadDeviceConfig
	BadFormat
	BadJSON
	BadLimit
	BadSpec
	BadTrace
	ConfigMismatch
	FormatConflict
	JobNotFinished
	MethodNotAllowed
	MissingInput
	NotFound
	PayloadTooLarge
	QueueFull
	QuotaExceeded
	RateLimited
	ShuttingDown
	TraceEvicted
	Unauthorized
	UnknownDevice
	UnknownFormat
	UnknownJob
	UnknownMethod
	UnknownTrace
	numCodes
)

// names are the wire spellings, indexed by the constants above.
var names = [numCodes]string{
	"internal",
	"bad_cursor",
	"bad_device_config",
	"bad_format",
	"bad_json",
	"bad_limit",
	"bad_spec",
	"bad_trace",
	"config_mismatch",
	"format_conflict",
	"job_not_finished",
	"method_not_allowed",
	"missing_input",
	"not_found",
	"payload_too_large",
	"queue_full",
	"quota_exceeded",
	"rate_limited",
	"shutting_down",
	"trace_evicted",
	"unauthorized",
	"unknown_device",
	"unknown_format",
	"unknown_job",
	"unknown_method",
	"unknown_trace",
}

// String returns the code's wire spelling.
func (c Code) String() string { return names[c] }

// Names returns every wire spelling, in constant order.
func Names() [numCodes]string { return names }
