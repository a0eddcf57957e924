package main

// stableCodes is the complete stable error-code vocabulary of the v1
// API: every code httpError or reject can be handed, and the set the
// README's "stable codes" paragraph promises clients. Three copies of
// this vocabulary exist on purpose — this one (the daemon's truth),
// the README paragraph (the client-facing contract), and
// errcode.StableCodes in tools/tracelint (the compile-time gate on
// call-site literals) — and TestStableCodeSync fails the build of
// whichever copy drifts.
//
// Grow it deliberately: a new code is a contract extension clients
// must be able to switch on, not a convenience for one handler.
var stableCodes = []string{
	"bad_cursor",
	"bad_device_config",
	"bad_format",
	"bad_json",
	"bad_limit",
	"bad_spec",
	"bad_trace",
	"config_mismatch",
	"corpus_disabled",
	"format_conflict",
	"internal",
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
