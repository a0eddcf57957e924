package main

// Example runs the program and checks what it prints, so a change that
// moves its numbers fails go test.
func Example() {
	main()
	// Output:
	// == idle recovery from inter-arrival times alone (webusers, FIU-style) ==
	// injected  Detect(TP)  Detect(FP)  Len(TP) secured  Len(FP) mean
	// --------  ----------  ----------  ---------------  ------------
	// 100us     24.5%       14.7%       22.2%            6.75ms
	// 1ms       53.7%       38.0%       50.1%            3.86ms
	// 10ms      100.0%      32.4%       72.8%            3.88ms
	// 100ms     100.0%      46.2%       98.5%            3.99ms
	//
	// Reading: sub-millisecond idles blur into device latency (the paper's
	// "blurring boundary"); by 10ms the model recovers nearly all injected
	// idle time with the right length.
}
