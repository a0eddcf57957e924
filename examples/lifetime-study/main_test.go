package main

// Example runs the program and checks what it prints, so a change that
// moves its numbers fails go test.
func Example() {
	main()
	// Output:
	// == FTL study vs trace acceleration factor (homes, diurnal) ==
	// trace              WAF     foreground GC  stall  idle GC time
	// -----------------  ------  -------------  -----  ------------
	// original           16.340  0.0%           0us    240s
	// accelerated 10x    15.622  0.0%           0us    228s
	// accelerated 100x   9.635   4.1%           5.14s  130s
	// accelerated 1000x  4.430   91.1%          51.1s  3.71s
	// TraceTracker       16.317  0.0%           0us    239s
	//
	// Reading: each decade of acceleration strips another decade of idle
	// budget; by 100x (the factor [8] used) background GC is squeezed and
	// the stall picture no longer resembles the original workload's.
}
