package main

// Example runs the program and checks what it prints, so a change that
// moves its numbers fails go test.
func Example() {
	main()
	// Output:
	// == Exchange on flash: predicted vs actual ==
	// method        duration  avg |dTintt| vs actual  idle kept
	// ------------  --------  ----------------------  ---------
	// actual (NEW)  586s      -                       100.0%
	// Acceleration  6.42s     38.6ms                  1.1%
	// Revision      6.33s     38.7ms                  0.0%
	// Fixed-th      562s      2.79ms                  95.5%
	// Dynamic       589s      2.25ms                  100.0%
	// TraceTracker  586s      2.32ms                  100.0%
	//
	// Reading: Acceleration compresses everything (idle lost, huge gap);
	// Revision gets service times right but drops think time; TraceTracker
	// tracks the actual flash-migrated behaviour closest.
}
