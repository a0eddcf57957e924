package main

// Example runs the program and checks what it prints, so a change that
// moves its numbers fails go test.
func Example() {
	main()
	// Output:
	// == idle structure across corpora ==
	// workload  set   idle freq  avg idle  idle<=10ms  10-100ms  >100ms  async
	// --------  ----  ---------  --------  ----------  --------  ------  -----
	// MSNFS     MSPS  59.3%      77.3ms    64.1%       24.2%     11.7%   14.7%
	// CFS       MSPS  59.0%      66.8ms    64.3%       24.5%     11.2%   15.2%
	// DAP       MSPS  59.7%      112ms     65.7%       23.5%     10.9%   14.5%
	// ikki      FIU   72.9%      1.11s     72.3%       15.0%     12.7%   27.1%
	// homes     FIU   52.2%      1.51s     64.0%       17.8%     18.2%   47.8%
	// madmax    FIU   44.8%      11.9s     59.8%       19.8%     20.5%   55.2%
	// wdev      MSRC  22.3%      330s      36.5%       25.1%     38.4%   23.9%
	// web       MSRC  22.4%      2.29s     34.2%       25.7%     40.0%   23.5%
	// src1      MSRC  22.8%      2.15s     37.2%       26.3%     36.5%   22.6%
	//
	// Reading: MSPS families idle often but briefly; FIU/MSRC families idle
	// rarely but for seconds — so nearly all of their wall time is idle, the
	// background-task budget the paper's Section V-B discusses.
}
