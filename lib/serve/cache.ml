type t = Rtcad_core.Store.t

let create ?shards ?budget ?capacity ?dir () =
  Rtcad_core.Store.make Rtcad_core.Store.serve ?shards ?budget ?capacity ?dir ()
