from faberpoly.cli import main

raise SystemExit(main())
