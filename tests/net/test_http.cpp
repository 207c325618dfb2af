#include "net/http.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/arrival_table.hpp"
#include "net/json.hpp"
#include "net/load_driver.hpp"
#include "util/rng.hpp"

namespace wiloc::net {
namespace {

TEST(HttpParser, SimpleGet) {
  RequestParser p;
  ASSERT_TRUE(p.feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
  const auto req = p.take_request();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/healthz");
  EXPECT_TRUE(req->body.empty());
  EXPECT_TRUE(req->keep_alive);
  EXPECT_FALSE(p.take_request().has_value());
}

TEST(HttpParser, QueryDecoding) {
  RequestParser p;
  ASSERT_TRUE(p.feed(
      "GET /v1/arrival?route=2&stop=5&label=a%20b+c HTTP/1.1\r\n\r\n"));
  const auto req = p.take_request();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->path, "/v1/arrival");
  EXPECT_EQ(req->param("route").value_or(""), "2");
  EXPECT_EQ(req->param_num("stop").value_or(-1), 5.0);
  EXPECT_EQ(req->param("label").value_or(""), "a b c");
  EXPECT_FALSE(req->param("missing").has_value());
  EXPECT_FALSE(req->param_num("label").has_value());  // not a number
}

TEST(HttpParser, PostBodySplitAcrossFeeds) {
  RequestParser p;
  ASSERT_TRUE(p.feed("POST /v1/scans HTTP/1.1\r\nContent-Le"));
  EXPECT_FALSE(p.take_request().has_value());
  ASSERT_TRUE(p.feed("ngth: 11\r\n\r\nhello"));
  EXPECT_FALSE(p.take_request().has_value());  // body incomplete
  ASSERT_TRUE(p.feed(" world"));
  const auto req = p.take_request();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->body, "hello world");
}

TEST(HttpParser, PipelinedRequests) {
  RequestParser p;
  ASSERT_TRUE(p.feed(
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n"));
  const auto a = p.take_request();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->path, "/a");
  EXPECT_TRUE(a->keep_alive);
  const auto b = p.take_request();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->path, "/b");
  EXPECT_FALSE(b->keep_alive);
}

TEST(HttpParser, HeaderLookupIsCaseInsensitive) {
  RequestParser p;
  ASSERT_TRUE(p.feed(
      "POST / HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\nX-Foo: bar\r\n\r\nok"));
  const auto req = p.take_request();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->headers.at("x-foo"), "bar");
  EXPECT_EQ(req->headers.at("X-FOO"), "bar");
}

TEST(HttpParser, RejectsBadRequestLine) {
  RequestParser p;
  EXPECT_FALSE(p.feed("nonsense\r\n\r\n"));
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ParseError::bad_request_line);
  // Poisoned: further feeds stay failed.
  EXPECT_FALSE(p.feed("GET / HTTP/1.1\r\n\r\n"));
}

TEST(HttpParser, RejectsChunkedTransferEncoding) {
  RequestParser p;
  EXPECT_FALSE(p.feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
  EXPECT_EQ(p.error(), ParseError::unsupported_transfer_encoding);
}

TEST(HttpParser, RejectsBadContentLength) {
  RequestParser p;
  EXPECT_FALSE(p.feed("POST / HTTP/1.1\r\nContent-Length: frog\r\n\r\n"));
  EXPECT_EQ(p.error(), ParseError::bad_content_length);
}

TEST(HttpParser, EnforcesHeaderLimit) {
  RequestParser p(RequestParser::Limits{/*max_header_bytes=*/64,
                                        /*max_body_bytes=*/1024});
  std::string big = "GET / HTTP/1.1\r\nX-Pad: ";
  big.append(200, 'x');
  big += "\r\n\r\n";
  EXPECT_FALSE(p.feed(big));
  EXPECT_EQ(p.error(), ParseError::headers_too_large);
}

TEST(HttpParser, EnforcesBodyLimit) {
  RequestParser p(RequestParser::Limits{/*max_header_bytes=*/1024,
                                        /*max_body_bytes=*/8});
  EXPECT_FALSE(p.feed("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n"));
  EXPECT_EQ(p.error(), ParseError::body_too_large);
}

TEST(HttpSerialize, AddsContentLengthAndConnection) {
  HttpResponse r = HttpResponse::json(200, "{\"ok\":true}");
  const std::string wire = serialize(r, /*keep_alive=*/true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"ok\":true}"), std::string::npos);

  const std::string closing = serialize(HttpResponse::text(404, "gone"),
                                        /*keep_alive=*/false);
  EXPECT_NE(closing.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(closing.find("Connection: close\r\n"), std::string::npos);
}

TEST(Json, ParsesScanBatchShape) {
  const auto doc = parse_json(
      R"({"scans":[{"trip":7,"t":12.5,"readings":[[1,-60.5],[2,-71]]}]})");
  ASSERT_TRUE(doc.has_value());
  const auto* scans = doc->get("scans");
  ASSERT_NE(scans, nullptr);
  const auto* items = scans->as_array();
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->size(), 1u);
  EXPECT_EQ((*items)[0].get_number("trip").value_or(-1), 7.0);
  EXPECT_EQ((*items)[0].get_number("t").value_or(-1), 12.5);
  const auto* readings = (*items)[0].get("readings")->as_array();
  ASSERT_NE(readings, nullptr);
  EXPECT_EQ((*(*readings)[0].as_array())[1].as_number().value_or(0), -60.5);
}

TEST(Json, ParsesEscapesAndLiterals) {
  const auto doc =
      parse_json(R"({"s":"a\"b\nA","b":true,"n":null,"e":-1.5e2})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(*doc->get("s")->as_string(), "a\"b\nA");
  EXPECT_EQ(doc->get("b")->as_bool().value_or(false), true);
  EXPECT_TRUE(doc->get("n")->is_null());
  EXPECT_EQ(doc->get_number("e").value_or(0), -150.0);
}

TEST(Json, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(parse_json("{", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(parse_json("{'a':1}").has_value());
  EXPECT_FALSE(parse_json("").has_value());
  // Nesting bomb bounces off the depth cap instead of the stack.
  std::string bomb(100, '[');
  EXPECT_FALSE(parse_json(bomb).has_value());
  // Number text std::from_chars reads but RFC 8259 does not allow.
  for (const char* bad :
       {"inf", "-inf", "infinity", "-infinity", "nan", "-nan", "NaN", ".5",
        "-.5", "01", "-01", "00", "1.", "1.e5", "1e", "1e+", "+1", "-",
        "0x10", "1e999"}) {
    err.clear();
    EXPECT_FALSE(parse_json(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
    const std::string in_array = std::string("[1,") + bad + "]";
    EXPECT_FALSE(parse_json(in_array).has_value()) << in_array;
  }
  EXPECT_FALSE(
      parse_json(R"({"scans":[{"trip":1,"t":5,"readings":[[3,-inf]]}]})")
          .has_value());
}

TEST(Json, ParsesEveryNumberForm) {
  const auto number = [](const char* text) {
    const auto v = parse_json(text);
    return v.has_value() ? v->as_number() : std::nullopt;
  };
  EXPECT_EQ(number("0"), 0.0);
  EXPECT_EQ(number("-0"), -0.0);
  EXPECT_EQ(number("17"), 17.0);
  EXPECT_EQ(number("-2.5"), -2.5);
  EXPECT_EQ(number("0.125"), 0.125);
  EXPECT_EQ(number("1e3"), 1000.0);
  EXPECT_EQ(number("1E+2"), 100.0);
  EXPECT_EQ(number("-4.5e-1"), -0.45);
  EXPECT_EQ(number(" 7 "), 7.0);
  // json_num's shortest round-trip text parses back bit-exactly.
  Rng rng(13);
  std::vector<double> values{0.0, -0.0, 1e-300, -1e300, 5e-324, 0.1 + 0.2,
                             464412.345678912,
                             std::numeric_limits<double>::max()};
  for (int i = 0; i < 2000; ++i)
    values.push_back(rng.normal(0.0, 1.0) *
                     std::pow(10.0, rng.uniform(-30.0, 30.0)));
  for (const double v : values) {
    const std::string text = core::json_num(v);
    const auto back = number(text.c_str());
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
              std::bit_cast<std::uint64_t>(v))
        << text;
  }
}

TEST(ScanBatchCodec, RoundTripsScanTimesBitExactly) {
  // A scan POSTed through the load driver must be ingested at the very
  // instant the same scan would be fed in-process: encode_scan_batch
  // prints times in json_num's shortest round-trip form.
  Rng rng(21);
  std::vector<double> times{464412.345678912, 0.0, -0.0, 0.1 + 0.2, 1e-9};
  times.push_back(1728000.0 + 1.0 / 3.0);
  for (int i = 0; i < 500; ++i) times.push_back(rng.uniform(0.0, 2e6));
  std::vector<core::ScanSubmission> batch;
  for (std::size_t i = 0; i < times.size(); ++i) {
    rf::WifiScan scan;
    scan.time = times[i];
    scan.readings.push_back({rf::ApId(static_cast<std::uint32_t>(i)), -40.0});
    scan.readings.push_back({rf::ApId(3), -67.0});
    const roadnet::TripId trip(static_cast<std::uint32_t>(i % 9));
    batch.push_back({trip, std::move(scan)});
  }
  const std::string body = encode_scan_batch(batch);
  std::string error;
  const auto back = decode_scan_batch(body, &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>((*back)[i].scan.time),
              std::bit_cast<std::uint64_t>(batch[i].scan.time))
        << "scan " << i << " t=" << batch[i].scan.time;
    EXPECT_EQ((*back)[i].trip, batch[i].trip);
    ASSERT_EQ((*back)[i].scan.readings.size(), 2u);
    EXPECT_EQ((*back)[i].scan.readings[0].rssi_dbm, -40.0);
  }
  // Integer dBm readings keep their plain integer text.
  EXPECT_EQ(encode_scan_batch(std::span(batch).first(1)),
            R"({"scans":[{"trip":0,"t":464412.345678912,)"
            R"("readings":[[0,-40],[3,-67]]}]})");
  // Non-finite readings (fault-injected streams) keep printf's text.
  using limits = std::numeric_limits<double>;
  batch[0].scan.readings[0].rssi_dbm = -limits::infinity();
  batch[0].scan.readings[1].rssi_dbm = limits::quiet_NaN();
  EXPECT_EQ(encode_scan_batch(std::span(batch).first(1)),
            R"({"scans":[{"trip":0,"t":464412.345678912,)"
            R"("readings":[[0,-inf],[3,nan]]}]})");
}

TEST(Json, QuoteEscapes) {
  EXPECT_EQ(json_quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

}  // namespace
}  // namespace wiloc::net
