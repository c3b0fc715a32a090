// The five TPC-C transactions. Each function executes this partition's share
// of the work (db.pid() decides the role). Undo records capture key + old
// value so they stay valid across table growth. Each write site saves only
// the columns it changes, so the undo and redo closures fit the UndoBuffer's
// inline storage; the one exception is a bad-credit Payment, whose image also
// carries C_DATA.
#include <algorithm>
#include <tuple>
#include <type_traits>

#include "common/logging.h"
#include "common/small_vector.h"
#include "tpcc/tpcc_engine.h"

namespace partdb {
namespace tpcc {

namespace {

/// `fn` as an UndoFn, checked at compile time to need no heap storage.
template <typename F>
UndoFn InlineFn(F fn) {
  static_assert(UndoFn::stored_inline<F>(), "undo/redo capture must fit inline");
  return UndoFn(std::move(fn));
}

/// Applies `mutate` to `row` (stored under `key` in `table`) and records the
/// undo and, under a multiversion scheme, the redo of the columns `kCols`.
/// `kCols` must name every column `mutate` can change.
template <auto... kCols, typename Table, typename Row, typename Fn>
void Write(Table& table, uint64_t key, Row& row, UndoBuffer* undo, WorkMeter* m, Fn&& mutate) {
  if (undo == nullptr) {
    mutate(row);
    return;
  }
  auto old = std::make_tuple(row.*kCols...);
  mutate(row);
  auto restore = [&table, key, old]() {
    Row& r = *table.Find(key);
    std::tie((r.*kCols)...) = old;
  };
  // Only an image carrying C_DATA (a bad-credit Payment) may spill.
  static_assert(UndoFn::stored_inline<decltype(restore)>() ||
                (std::is_same_v<std::decay_t<decltype(row.*kCols)>, Str32> || ...));
  undo->AddWithRedo(std::move(restore),
                    [&] {
                      auto now = std::make_tuple(row.*kCols...);
                      return [&table, key, now]() {
                        Row& r = *table.Find(key);
                        std::tie((r.*kCols)...) = now;
                      };
                    },
                    m);
}

/// Read-modify-write of the columns `kCols` of a hash-table row, with undo.
template <auto... kCols, typename V, typename Fn>
void Update(HashTable<uint64_t, V>& table, uint64_t key, UndoBuffer* undo, WorkMeter* m,
            Fn&& mutate) {
  V* row = table.Find(key, m);
  PARTDB_CHECK(row != nullptr);
  if (m != nullptr) {
    m->reads++;
    m->writes++;
  }
  Write<kCols...>(table, key, *row, undo, m, std::forward<Fn>(mutate));
}

/// NewOrder's stock decrement (spec 2.4.2.2) for one line this partition
/// supplies.
void UpdateStock(TpccDb& db, const NewOrderArgs& a, const NewOrderArgs::Line& line,
                 UndoBuffer* undo, WorkMeter* m) {
  const auto take = [&](StockRow& s) {
    if (s.quantity - line.quantity >= 10) {
      s.quantity -= line.quantity;
    } else {
      s.quantity += 91 - line.quantity;
    }
    s.ytd += line.quantity;
    s.order_cnt++;
    if (line.supply_w_id != a.w_id) s.remote_cnt++;
  };
  Update<&StockRow::quantity, &StockRow::ytd, &StockRow::order_cnt, &StockRow::remote_cnt>(
      db.stock, StockKey(line.supply_w_id, line.i_id), undo, m, take);
}

/// The order line NewOrder inserts. Price and district info come from the
/// replicated read-only tables, so a redo rebuilds the row from its ids.
OrderLineRow MakeOrderLine(int32_t w, int32_t d, int32_t o_id, int32_t ol,
                           const NewOrderArgs::Line& line, const ItemRow& item,
                           const StockInfoRow& sinfo) {
  OrderLineRow olr;
  olr.o_id = o_id;
  olr.d_id = d;
  olr.w_id = w;
  olr.ol_number = ol;
  olr.i_id = line.i_id;
  olr.supply_w_id = line.supply_w_id;
  olr.delivery_d = 0;
  olr.quantity = line.quantity;
  olr.amount = line.quantity * item.price;
  olr.dist_info = sinfo.dist[d - 1];
  return olr;
}

/// The HISTORY columns Payment sets (data stays empty), with the district
/// ids (1..10, as RouteTpcc admits) narrowed so the redo closure, which also
/// holds the db and row id, fits inline. c_id may be 0 when the customer was
/// selected by name: the resolved id lives at the customer partition, so the
/// row records the lookup key fields.
struct HistoryImage {
  explicit HistoryImage(const PaymentArgs& a)
      : date(a.date),
        amount(a.amount),
        c_id(a.c_id),
        c_w_id(a.c_w_id),
        w_id(a.w_id),
        c_d_id(static_cast<int16_t>(a.c_d_id)),
        d_id(static_cast<int16_t>(a.d_id)) {
    PARTDB_DCHECK(c_d_id == a.c_d_id && d_id == a.d_id);
  }

  int64_t date;
  double amount;
  int32_t c_id, c_w_id, w_id;
  int16_t c_d_id, d_id;

  HistoryRow Row() const {
    HistoryRow h;
    h.c_id = c_id;
    h.c_d_id = c_d_id;
    h.c_w_id = c_w_id;
    h.d_id = d_id;
    h.w_id = w_id;
    h.date = date;
    h.amount = amount;
    return h;
  }
};

/// Resolves a customer id from a (w, d, last-name) triple: the customer at
/// position ceil(n/2) among matches ordered by first name (spec 2.5.2.2).
int32_t CustomerByName(TpccDb& db, int32_t w, int32_t d, const Str16& last, WorkMeter* m) {
  CustomerNameKey probe;
  probe.wd = DistrictKey(w, d);
  probe.last = last;
  const auto first = db.customers_by_name.LowerBound(probe, m);
  int matches = 0;
  for (auto it = first; it.Valid(); it.Next()) {
    const CustomerNameKey& k = it.key();
    if (k.wd != probe.wd || !(k.last == last)) break;
    ++matches;
    if (m != nullptr) m->reads++;
  }
  PARTDB_CHECK(matches > 0);
  auto pick = first;
  for (int i = 0; i < (matches + 1) / 2 - 1; ++i) pick.Next();
  return pick.key().c_id;
}

}  // namespace

ExecResult ExecNewOrder(TpccDb& db, const NewOrderArgs& a, UndoBuffer* undo, WorkMeter* m) {
  ExecResult res;
  const TpccScale& scale = db.scale();
  const bool home = scale.PartitionOf(a.w_id) == db.pid();

  if (home) {
    // Paper modification #1: validate every item before any write, so a user
    // abort (1% invalid item) needs no undo.
    for (const auto& line : a.lines) {
      const ItemRow* item = db.items.Find(static_cast<uint64_t>(line.i_id), m);
      if (m != nullptr) m->reads++;
      if (item == nullptr) {
        res.aborted = true;
        return res;
      }
    }

    const WarehouseRow* wr = db.warehouses.Find(static_cast<uint64_t>(a.w_id), m);
    PARTDB_CHECK(wr != nullptr);
    const double w_tax = wr->tax;
    if (m != nullptr) m->reads++;

    int32_t o_id = 0;
    double d_tax = 0;
    const auto next_order = [&](DistrictRow& dr) {
      o_id = dr.next_o_id;
      d_tax = dr.tax;
      dr.next_o_id++;
    };
    Update<&DistrictRow::next_o_id>(db.districts, DistrictKey(a.w_id, a.d_id), undo, m, next_order);

    const CustomerRow* cr = db.customers.Find(CustomerKey(a.w_id, a.d_id, a.c_id), m);
    PARTDB_CHECK(cr != nullptr);
    const double c_discount = cr->discount;
    if (m != nullptr) m->reads++;

    bool all_local = true;
    for (const auto& line : a.lines) {
      if (line.supply_w_id != a.w_id) all_local = false;
    }

    OrderRow orow;
    orow.o_id = o_id;
    orow.d_id = a.d_id;
    orow.w_id = a.w_id;
    orow.c_id = a.c_id;
    orow.entry_d = a.entry_d;
    orow.carrier_id = 0;
    orow.ol_cnt = static_cast<int32_t>(a.lines.size());
    orow.all_local = all_local;
    PARTDB_CHECK(db.orders.Insert(OrderKey(a.w_id, a.d_id, o_id), orow, m));
    if (undo != nullptr) {
      undo->AddWithRedo(
          InlineFn([&db, w = a.w_id, d = a.d_id, o_id]() {
            db.orders.Erase(OrderKey(w, d, o_id));
          }),
          [&] {
            return InlineFn([&db, orow]() {
              db.orders.Insert(OrderKey(orow.w_id, orow.d_id, orow.o_id), orow);
            });
          },
          m);
    }
    PARTDB_CHECK(db.new_orders.Insert(NewOrderKey(a.w_id, a.d_id, o_id), true, m));
    if (undo != nullptr) {
      undo->AddWithRedo(
          InlineFn([&db, w = a.w_id, d = a.d_id, o_id]() {
            db.new_orders.Erase(NewOrderKey(w, d, o_id));
          }),
          [&] {
            return InlineFn([&db, w = a.w_id, d = a.d_id, o_id]() {
              db.new_orders.Insert(NewOrderKey(w, d, o_id), true);
            });
          },
          m);
    }
    {
      const uint64_t ck = CustomerKey(a.w_id, a.d_id, a.c_id);
      if (undo != nullptr) {
        int32_t* prev = db.last_order_of_customer.Find(ck);
        const bool existed = prev != nullptr;
        const int32_t old = existed ? *prev : 0;
        undo->AddWithRedo(
            InlineFn([&db, ck, existed, old]() {
              if (existed) {
                db.last_order_of_customer.Put(ck, old);
              } else {
                db.last_order_of_customer.Erase(ck);
              }
            }),
            [&] {
              return InlineFn([&db, ck, o_id]() { db.last_order_of_customer.Put(ck, o_id); });
            },
            m);
      }
      db.last_order_of_customer.Put(ck, o_id, m);
      if (m != nullptr) m->writes++;
    }

    double total = 0;
    int32_t ol = 0;
    for (const auto& line : a.lines) {
      ++ol;
      const ItemRow* item = db.items.Find(static_cast<uint64_t>(line.i_id), m);
      PARTDB_CHECK(item != nullptr);
      // Read-only stock columns are replicated: read the dist info locally
      // even for remote supply warehouses (paper §5.5).
      const StockInfoRow* sinfo = db.stock_info.Find(StockKey(line.supply_w_id, line.i_id), m);
      PARTDB_CHECK(sinfo != nullptr);
      if (m != nullptr) m->reads += 2;

      if (scale.PartitionOf(line.supply_w_id) == db.pid()) UpdateStock(db, a, line, undo, m);

      const OrderLineRow olr = MakeOrderLine(a.w_id, a.d_id, o_id, ol, line, *item, *sinfo);
      total += olr.amount;
      PARTDB_CHECK(db.order_lines.Insert(OrderLineKey(a.w_id, a.d_id, o_id, ol), olr, m));
      if (undo != nullptr) {
        undo->AddWithRedo(
            InlineFn([&db, w = a.w_id, d = a.d_id, o_id, ol]() {
              db.order_lines.Erase(OrderLineKey(w, d, o_id, ol));
            }),
            [&] {
              return InlineFn([&db, w = a.w_id, d = a.d_id, o_id, ol, line]() {
                const ItemRow* item = db.items.Find(static_cast<uint64_t>(line.i_id));
                const StockInfoRow* si = db.stock_info.Find(StockKey(line.supply_w_id, line.i_id));
                const OrderLineRow row = MakeOrderLine(w, d, o_id, ol, line, *item, *si);
                db.order_lines.Insert(OrderLineKey(w, d, o_id, ol), row);
              });
            },
            m);
      }
      if (m != nullptr) {
        m->writes++;
        m->user_code++;
      }
    }

    auto out = std::make_shared<TpccResult>();
    out->id = o_id;
    out->amount = total * (1.0 - c_discount) * (1.0 + w_tax + d_tax);
    res.result = std::move(out);
    return res;
  }

  // Remote fragment: update the stock rows this partition owns. Validate
  // first — an invalid item (the 1% user-abort case) may be supplied
  // remotely, and this participant must vote abort without writing.
  for (const auto& line : a.lines) {
    if (scale.PartitionOf(line.supply_w_id) != db.pid()) continue;
    if (db.stock.Find(StockKey(line.supply_w_id, line.i_id), m) == nullptr) {
      res.aborted = true;
      return res;
    }
    if (m != nullptr) m->reads++;
  }
  for (const auto& line : a.lines) {
    if (scale.PartitionOf(line.supply_w_id) != db.pid()) continue;
    UpdateStock(db, a, line, undo, m);
    if (m != nullptr) m->user_code++;
  }
  return res;
}

ExecResult ExecPayment(TpccDb& db, const PaymentArgs& a, UndoBuffer* undo, WorkMeter* m) {
  ExecResult res;
  const TpccScale& scale = db.scale();
  const bool home = scale.PartitionOf(a.w_id) == db.pid();
  const bool customer_side = scale.PartitionOf(a.c_w_id) == db.pid();

  if (home) {
    Update<&WarehouseRow::ytd>(db.warehouses, static_cast<uint64_t>(a.w_id), undo, m,
                               [&](WarehouseRow& w) { w.ytd += a.amount; });
    Update<&DistrictRow::ytd>(db.districts, DistrictKey(a.w_id, a.d_id), undo, m,
                              [&](DistrictRow& d) { d.ytd += a.amount; });
    const HistoryImage h(a);
    const uint64_t hid = db.next_history_id++;
    db.history.Put(hid, h.Row(), m);
    if (m != nullptr) m->writes++;
    if (undo != nullptr) {
      undo->AddWithRedo(InlineFn([&db, hid]() { db.history.Erase(hid); }),
                        [&] {
                          return InlineFn([&db, hid, h]() { db.history.Put(hid, h.Row()); });
                        },
                        m);
    }
  }

  if (customer_side) {
    const int32_t c_id =
        a.c_id != 0 ? a.c_id : CustomerByName(db, a.c_w_id, a.c_d_id, a.c_last, m);
    const uint64_t ck = CustomerKey(a.c_w_id, a.c_d_id, c_id);
    CustomerRow* c = db.customers.Find(ck, m);
    PARTDB_CHECK(c != nullptr);
    if (m != nullptr) {
      m->reads++;
      m->writes++;
    }
    const auto pay = [&](CustomerRow& row) {
      row.balance -= a.amount;
      row.ytd_payment += a.amount;
      row.payment_cnt++;
    };
    if (c->credit == Str2("BC")) {
      // Bad-credit customers get payment info prepended to C_DATA.
      const auto pay_bad_credit = [&](CustomerRow& row) {
        pay(row);
        char buf[32];
        const int n = std::snprintf(buf, sizeof(buf), "%d,%d,%d,%d,%.2f|", c_id, a.c_d_id,
                                    a.c_w_id, a.d_id, a.amount);
        row.data = Str32(std::string_view(buf, std::min<size_t>(static_cast<size_t>(n), 32)));
      };
      Write<&CustomerRow::balance, &CustomerRow::ytd_payment, &CustomerRow::payment_cnt,
            &CustomerRow::data>(db.customers, ck, *c, undo, m, pay_bad_credit);
    } else {
      Write<&CustomerRow::balance, &CustomerRow::ytd_payment, &CustomerRow::payment_cnt>(
          db.customers, ck, *c, undo, m, pay);
    }
    auto out = std::make_shared<TpccResult>();
    out->id = c_id;
    out->amount = a.amount;
    res.result = std::move(out);
  }
  return res;
}

ExecResult ExecOrderStatus(TpccDb& db, const OrderStatusArgs& a, WorkMeter* m) {
  ExecResult res;
  const int32_t c_id = a.c_id != 0 ? a.c_id : CustomerByName(db, a.w_id, a.d_id, a.c_last, m);
  const CustomerRow* c = db.customers.Find(CustomerKey(a.w_id, a.d_id, c_id), m);
  PARTDB_CHECK(c != nullptr);
  if (m != nullptr) m->reads++;

  auto out = std::make_shared<TpccResult>();
  out->id = c_id;
  out->amount = c->balance;

  const int32_t* last = db.last_order_of_customer.Find(CustomerKey(a.w_id, a.d_id, c_id), m);
  if (last != nullptr) {
    const OrderRow* o = db.orders.Find(OrderKey(a.w_id, a.d_id, *last), m);
    PARTDB_CHECK(o != nullptr);
    if (m != nullptr) m->reads++;
    for (int32_t ol = 1; ol <= o->ol_cnt; ++ol) {
      const OrderLineRow* olr = db.order_lines.Find(OrderLineKey(a.w_id, a.d_id, *last, ol), m);
      PARTDB_CHECK(olr != nullptr);
      if (m != nullptr) m->reads++;
    }
  }
  res.result = std::move(out);
  return res;
}

ExecResult ExecDelivery(TpccDb& db, const DeliveryArgs& a, UndoBuffer* undo, WorkMeter* m) {
  ExecResult res;
  int delivered = 0;
  double total_amount = 0;

  for (int32_t d = 1; d <= TpccScale::kDistrictsPerWarehouse; ++d) {
    // Oldest undelivered order for this district (delete-min on the AVL).
    uint64_t key = 0;
    bool* dummy = nullptr;
    if (!db.new_orders.LowerBound(NewOrderKey(a.w_id, d, 0), &key, &dummy, m)) continue;
    if (key >= NewOrderKey(a.w_id, d + 1, 0)) continue;  // none in this district
    const int32_t o_id = static_cast<int32_t>(key & 0xFFFFFFFFu);

    PARTDB_CHECK(db.new_orders.Erase(key, m));
    if (m != nullptr) m->writes++;
    if (undo != nullptr) {
      undo->AddWithRedo(InlineFn([&db, key]() { db.new_orders.Insert(key, true); }),
                        [&] {
                          return InlineFn([&db, key]() { db.new_orders.Erase(key); });
                        },
                        m);
    }

    OrderRow* o = db.orders.Find(OrderKey(a.w_id, d, o_id), m);
    PARTDB_CHECK(o != nullptr);
    Write<&OrderRow::carrier_id>(db.orders, OrderKey(a.w_id, d, o_id), *o, undo, m,
                                 [&](OrderRow& row) { row.carrier_id = a.carrier_id; });
    if (m != nullptr) {
      m->reads++;
      m->writes++;
    }

    double sum = 0;
    for (int32_t ol = 1; ol <= o->ol_cnt; ++ol) {
      OrderLineRow* olr = db.order_lines.Find(OrderLineKey(a.w_id, d, o_id, ol), m);
      PARTDB_CHECK(olr != nullptr);
      Write<&OrderLineRow::delivery_d>(db.order_lines, OrderLineKey(a.w_id, d, o_id, ol), *olr,
                                       undo, m,
                                       [&](OrderLineRow& row) { row.delivery_d = a.date; });
      sum += olr->amount;
      if (m != nullptr) {
        m->reads++;
        m->writes++;
      }
    }

    const auto deliver = [&](CustomerRow& c) {
      c.balance += sum;
      c.delivery_cnt++;
    };
    Update<&CustomerRow::balance, &CustomerRow::delivery_cnt>(
        db.customers, CustomerKey(a.w_id, d, o->c_id), undo, m, deliver);
    total_amount += sum;
    ++delivered;
  }

  auto out = std::make_shared<TpccResult>();
  out->id = delivered;
  out->amount = total_amount;
  res.result = std::move(out);
  return res;
}

ExecResult ExecStockLevel(TpccDb& db, const StockLevelArgs& a, WorkMeter* m) {
  ExecResult res;
  const DistrictRow* d = db.districts.Find(DistrictKey(a.w_id, a.d_id), m);
  PARTDB_CHECK(d != nullptr);
  if (m != nullptr) m->reads++;

  // Distinct items in the district's last 20 orders with stock below the
  // threshold. The spec's 15 lines per order fit inline; longer orders from
  // embedded callers spill to the heap.
  SmallVector<int32_t, 20 * 15> items;
  const int32_t from = std::max(1, d->next_o_id - 20);
  for (int32_t o = from; o < d->next_o_id; ++o) {
    const OrderRow* orow = db.orders.Find(OrderKey(a.w_id, a.d_id, o), m);
    if (orow == nullptr) continue;
    for (int32_t ol = 1; ol <= orow->ol_cnt; ++ol) {
      const OrderLineRow* olr = db.order_lines.Find(OrderLineKey(a.w_id, a.d_id, o, ol), m);
      PARTDB_CHECK(olr != nullptr);
      if (m != nullptr) m->reads++;
      items.push_back(olr->i_id);
    }
  }
  std::sort(items.begin(), items.end());
  int low = 0;
  for (const int32_t* it = items.begin(), *end = std::unique(items.begin(), items.end());
       it != end; ++it) {
    const StockRow* s = db.stock.Find(StockKey(a.w_id, *it), m);
    PARTDB_CHECK(s != nullptr);
    if (m != nullptr) m->reads++;
    if (s->quantity < a.threshold) ++low;
  }
  auto out = std::make_shared<TpccResult>();
  out->id = low;
  res.result = std::move(out);
  return res;
}

}  // namespace tpcc
}  // namespace partdb
