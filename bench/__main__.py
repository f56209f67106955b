from bench.harness import main

raise SystemExit(main())
